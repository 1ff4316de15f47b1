"""Exact p-adic Hodge deformation parameters for elliptic curves over Q_p.

From a short Weierstrass model with potentially supersingular reduction the
package computes the deformation parameters (beta, alpha), the sign epsilon,
canonical-subgroup detection, the stabilization level n0, the p-adic Galois
image classification, the alternative division polynomials g_k, and adelic
index bounds, all in exact or certified bounded-precision arithmetic.
"""

from types import ModuleType as _ModuleType

from .padic import (
    INFINITY,
    NewtonPolygon,
    PadicScalar,
    factorial_unit,
    multinomial_exact,
    multinomial_padic,
    multinomial_valuation,
    newton_polygon,
    val_binomial_prime_power,
    val_factorial,
    vp,
)
from .eisenstein import EisensteinElement
from .curve import (
    ReductionData,
    WeierstrassCurve,
    good_model_over_L,
    minimal_model,
    quadratic_twist,
    semistability_defect,
)
from .formal_log import (
    FormalLogPrefix,
    hasse_invariant,
    odd_coefficient_valuation,
    recurrence_logarithm,
    series_inversion_logarithm,
    yasuda_coefficient,
    yasuda_coefficient_exact,
)
from .volkov import (
    ALPHA_INFINITY,
    HodgeParameters,
    alpha_from_beta,
    beta_from_logarithm,
    epsilon_sign,
    has_canonical_subgroup,
    hodge_parameters,
    stabilization_level,
    v_alpha_table,
    v_beta_closed_form,
)
from .divpoly import (
    SparsePolynomialL,
    build_gk,
    coefficient_valuations,
    format_table,
    newton_polygon_of,
    root_valuation_partition,
)
from .classifier import (
    AdelicBound,
    ImageReport,
    adelic_bound,
    classify,
    delta_correction,
    index_at_stabilization,
    per_prime_index_bound,
)

__version__ = "0.1.0"

# Every public name bound above, bar the submodules that the imports bind.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
