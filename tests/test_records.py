"""The package's result records: repr, equality, hashing, immutability, and
pickling and copying, of the records and of the numbers they hold."""

import copy
import pickle
from fractions import Fraction

import pytest

from padic_cartan import (
    ALPHA_INFINITY,
    EisensteinElement,
    FormalLogPrefix,
    HodgeParameters,
    ImageReport,
    PadicScalar,
    ReductionData,
    WeierstrassCurve,
    build_gk,
    classify,
    good_model_over_L,
    hodge_parameters,
    newton_polygon,
    series_inversion_logarithm,
)

# Each record's fields in their positional order.
FIELDS = {
    ReductionData: ("minimal", "defect", "v_min_discriminant", "potential_type",
                    "supersingular"),
    HodgeParameters: ("prime", "e", "k_used", "certificate_pi_digits", "beta", "v_beta",
                      "epsilon", "alpha", "v_alpha"),
    ImageReport: ("prime", "defect", "reduction_type", "supersingular", "v_min_discriminant",
                  "canonical_subgroup", "hodge", "n0", "image_label", "index_at_level",
                  "hypotheses_checked"),
}


def _records():
    curve = WeierstrassCurve(11, 11**3, 11**2)
    return [curve.reduction, hodge_parameters(curve, k=2), classify(11, 11**3, 11**2),
            classify(13, 13**3, 13**2)]


def test_weierstrass_curve_repr_shows_its_three_fields():
    assert repr(WeierstrassCurve(11, 1331, Fraction(121, 7))) == (
        "WeierstrassCurve(prime=11, a=Fraction(1331, 1), b=Fraction(121, 7))")


def test_weierstrass_curve_equality_and_hash_read_prime_a_b_only():
    curve = WeierstrassCurve(11, 11**3, 11**2)
    curve.reduction, curve.j_invariant  # fill the derived fields of one side only
    same = WeierstrassCurve(11, Fraction(11**3), Fraction(11**2))
    assert curve == same and hash(curve) == hash(same) and len({curve, same}) == 1
    assert curve != WeierstrassCurve(11, 11**3, 2 * 11**2)
    assert curve != WeierstrassCurve(13, 11**3, 11**2)
    assert curve != (11, Fraction(11**3), Fraction(11**2))


@pytest.mark.parametrize("field", ["prime", "a", "b", "v_a", "v_b", "v_discriminant",
                                   "reduction", "discriminant", "extra"])
def test_weierstrass_curve_refuses_assignment(field):
    curve = WeierstrassCurve(11, 11**3, 11**2)
    with pytest.raises(AttributeError):
        setattr(curve, field, 1)
    assert curve == WeierstrassCurve(11, 11**3, 11**2) and curve.v_discriminant == 4


def test_records_repr_lists_fields_in_order():
    for record in _records():
        fields = FIELDS[type(record)]
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{type(record).__name__}({shown})"


def test_records_build_positionally_and_compare_by_value():
    for record in _records():
        values = [getattr(record, name) for name in FIELDS[type(record)]]
        again = type(record)(*values)
        assert again == record and not again != record
        assert again != type(record)(*values[:-1], "other")


def test_records_refuse_assignment():
    for record in _records():
        for name in FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_records_hash_their_fields_or_raise_type_error():
    reduction, hodge, report, ordinary = _records()
    assert hash(reduction) == hash(WeierstrassCurve(11, 11**3, 11**2).reduction)
    assert hash(ordinary) == hash(classify(13, 13**3, 13**2))  # hodge is None
    for unhashable in (hodge, report):  # beta is an EisensteinElement
        with pytest.raises(TypeError):
            hash(unhashable)


def test_sparse_polynomial_repr_equality_and_immutability():
    poly = build_gk(11, 3, 0, 1)
    assert repr(poly) == "SparsePolynomialL(p=11, e=3, degree=121, terms=2)"
    assert poly == build_gk(11, 3, 0, 1) and poly != build_gk(11, 3, 1, 1)
    for name in ("prime", "ram_index", "coefficients"):
        with pytest.raises(AttributeError):
            setattr(poly, name, None)
    with pytest.raises(TypeError):  # the coefficients are a dict
        hash(poly)


def test_newton_polygon_repr_and_immutability():
    polygon = newton_polygon([(0, 3), (2, 1), (5, 0)])
    assert repr(polygon) == ("NewtonPolygon(vertices=[(0, Fraction(3, 1)), (2, Fraction(1, 1)), "
                             "(5, Fraction(0, 1))], segments=[(slope -1, len 2), "
                             "(slope -1/3, len 3)])")
    for name in ("points", "vertices", "segments", "zero_root_multiplicity", "degree"):
        with pytest.raises(AttributeError):
            setattr(polygon, name, None)


def test_formal_log_prefix_len_repr_equality_and_immutability():
    prefix = series_inversion_logarithm(1, 2, 7)
    assert len(prefix) == 8 and prefix.d(5) == Fraction(2, 5)
    assert repr(prefix) == ("FormalLogPrefix(coefficients=(Fraction(0, 1), Fraction(1, 1), "
                            "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(2, 5), "
                            "Fraction(0, 1), Fraction(6, 7)))")
    same = FormalLogPrefix(prefix.coefficients)
    assert prefix == same and hash(prefix) == hash(same)
    assert prefix != series_inversion_logarithm(1, 3, 7)
    assert prefix != prefix.coefficients
    with pytest.raises(AttributeError):
        prefix.coefficients = ()
    model = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)
    with pytest.raises(TypeError):  # coefficients over L do not hash
        hash(series_inversion_logarithm(*model, 3))


def _round_trips(value):
    """value through pickle, copy.deepcopy and copy.copy."""
    return [pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)]


_SCALARS = [PadicScalar.exact_zero(11), PadicScalar.zero_to_precision(11, 4),
            PadicScalar(11, 123, -2, 5), PadicScalar(11, -7, 3, float("inf"))]
_ELEMENTS = [EisensteinElement.zero(11, 3),
             EisensteinElement.from_scalar(PadicScalar.zero_to_precision(11, 2), 4),
             EisensteinElement(11, 3, [_SCALARS[2], _SCALARS[1], PadicScalar(11, 5, 1, 6)]),
             EisensteinElement.pi_monomial(_SCALARS[3], 5, 6)]


@pytest.mark.parametrize("x", _SCALARS + _ELEMENTS, ids=repr)
def test_numbers_pickle_and_copy(x):
    for y in _round_trips(x):
        assert type(y) is type(x) and repr(y) == repr(x)
        assert (y.prime, y.ram_index, y.form) == (x.prime, x.ram_index, x.form)
        assert repr(y * y + 1) == repr(x * x + 1)
        with pytest.raises(AttributeError):
            y.form = ()


def test_records_holding_numbers_pickle_and_copy():
    report = classify(11, 11**3, 11**2)
    cm = hodge_parameters(WeierstrassCurve(11, 0, 11**2))
    assert report.hodge is not None and cm.alpha is ALPHA_INFINITY
    poly = build_gk(11, 3, 0, 1)
    model = good_model_over_L(WeierstrassCurve(11, 11**3, 11**2), 3)
    prefix = series_inversion_logarithm(*(c.truncate_pi(12) for c in model), 5)  # d_5 finite
    for y in _round_trips(report):
        assert y.to_dict() == report.to_dict() and repr(y) == repr(report)
    for y in _round_trips(cm):
        assert repr(y) == repr(cm) and y.alpha is ALPHA_INFINITY
    for record in (poly, prefix):
        for y in _round_trips(record):
            assert type(y) is type(record) and repr(y) == repr(record) and y == record
