"""Tests for the package root: what `from padic_cartan import *` exports."""

from types import ModuleType

import padic_cartan

EXPORTS = [
    "ALPHA_INFINITY", "AdelicBound", "EisensteinElement", "FormalLogPrefix",
    "HodgeParameters", "INFINITY", "ImageReport", "NewtonPolygon", "PadicScalar",
    "ReductionData", "SparsePolynomialL", "WeierstrassCurve", "adelic_bound",
    "alpha_from_beta", "beta_from_logarithm", "build_gk", "classify",
    "coefficient_valuations", "delta_correction", "epsilon_sign", "factorial_unit",
    "format_table", "good_model_over_L", "has_canonical_subgroup", "hasse_invariant",
    "hodge_parameters", "index_at_stabilization", "minimal_model", "multinomial_exact",
    "multinomial_padic", "multinomial_valuation", "newton_polygon", "newton_polygon_of",
    "odd_coefficient_valuation", "per_prime_index_bound", "quadratic_twist",
    "recurrence_logarithm", "root_valuation_partition", "semistability_defect",
    "series_inversion_logarithm", "stabilization_level", "v_alpha_table",
    "v_beta_closed_form", "val_binomial_prime_power", "val_factorial", "vp",
    "yasuda_coefficient", "yasuda_coefficient_exact",
]


def test_every_public_name_is_exported_once():
    assert sorted(padic_cartan.__all__) == EXPORTS
    assert len(set(padic_cartan.__all__)) == len(padic_cartan.__all__)


def test_star_import_binds_the_exports_and_no_module():
    namespace = {}
    exec("from padic_cartan import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTS
    assert not any(isinstance(value, ModuleType) for value in namespace.values())
    # The submodules are still reachable as attributes of the package.
    assert isinstance(padic_cartan.formal_log, ModuleType)
