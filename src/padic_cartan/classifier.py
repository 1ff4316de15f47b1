"""End-to-end classification of the p-adic Galois image, plus index bounds.

classify() runs the whole pipeline on one curve y**2 = x**3 + A x + B over
Q_p: minimal model, semistability defect, good model over L, deformation
parameters (beta, epsilon, alpha), canonical-subgroup gate, stabilization
level n0, and finally the image label with its index at level p**n0.

Gating is fail-closed.  Any hypothesis the theory needs but the input does
not satisfy (p > 7, supersingular reduction, no canonical subgroup,
p > sqrt(n0+1)) produces image_label out_of_scope(<reason>) rather than an
extrapolated answer.  All such reports still carry whatever invariants were
computable before the gate fired, and classify() raises only on malformed
input (bad prime, discriminant zero).

per_prime_index_bound and adelic_bound evaluate the index-bound tables; the
former is exact, the latter uses double precision since its constants are
decimal approximations to begin with.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .curve import MULTIPLICATIVE, WeierstrassCurve
from .errors import ExcludedJInvariantError, NormalizationError
from .padic import INFINITY, _texts, check_odd_prime
from .volkov import (
    ALPHA_INFINITY,
    adaptive_level,
    beta_pi_digits,
    has_canonical_subgroup,
    hodge_parameters,
    stabilization_level,
)

FULL_LABEL = "full_Cns_plus_all_levels"

REASON_MULTIPLICATIVE = "multiplicative_reduction"
REASON_ORDINARY = "ordinary_reduction"
REASON_CANONICAL = "canonical_subgroup"
REASON_SMALL_PRIME = "p_not_greater_than_7"
REASON_LEVEL_VS_PRIME = "p_not_greater_than_sqrt_n0_plus_1"

# Default cap on the refinement level when none is requested: acceptance
# criterion 2 pins k=3 (the README says why the CLI keeps 2).
_DEFAULT_K_CAP = 3

# The one j-invariant the per-prime index table must not be applied to.
EXCLUDED_J_INVARIANT = Fraction(2**4 * 3**2 * 5**7 * 23**3)


def out_of_scope_label(reason: str) -> str:
    return f"out_of_scope({reason})"


def preimage_label(n0: int) -> str:
    return f"preimage_of_Cns_plus_level_{n0}"


def index3_label(n0: int) -> str:
    return f"preimage_of_index3_subgroup_level_{n0}"


def index_at_stabilization(p: int, e: int, v_min_discriminant: int) -> int:
    """Index (1 or 3) of the image inside C_ns+(p**n0).

    3 exactly when p = 2 mod 9 with v(disc_min) in {4, 10}, or p = 5 mod 9
    with v(disc_min) in {2, 8}; forced to 1 when e = 4 or p is not 2 or 5
    mod 9.  The two valuation pairs are swapped by quadratic twisting, so
    the answer is twist-invariant.
    """
    if e == 4 or p % 9 not in (2, 5):
        return 1
    if p % 9 == 2 and v_min_discriminant in (4, 10):
        return 3
    if p % 9 == 5 and v_min_discriminant in (2, 8):
        return 3
    return 1


class ImageReport(NamedTuple):
    """Everything classify() established about one curve."""

    prime: int
    defect: int
    reduction_type: str
    supersingular: bool
    v_min_discriminant: int
    canonical_subgroup: object  # bool, or None when never evaluated
    hodge: object  # HodgeParameters, or None when unavailable
    n0: object  # int, or None (out of scope, or CM-type: all levels)
    image_label: str
    index_at_level: object  # 1 or 3, or None when out of scope
    hypotheses_checked: tuple  # of (condition: str, holds: bool)

    def to_dict(self) -> dict:
        """JSON-safe dict; field order is the canonical output order."""
        # One unpack: each NamedTuple field read by name goes through a descriptor.
        (prime, defect, reduction_type, supersingular, v_min_discriminant, canonical_subgroup,
         hodge, n0, image_label, index_at_level, hypotheses_checked) = self
        return {
            "prime": prime,
            "defect": defect,
            "reduction_type": reduction_type,
            "supersingular": supersingular,
            "v_min_discriminant": v_min_discriminant,
            "canonical_subgroup": canonical_subgroup,
            "n0": n0,
            "image_label": image_label,
            "index_at_level": index_at_level,
            "hypotheses_checked": list(map(list, hypotheses_checked)),
            "hodge": _hodge_dict(hodge),
        }


def _encode_exact(value):
    """Fractions (and infinities) as strings, ints as ints."""
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        if value == INFINITY:
            return "inf"
        if value == -INFINITY:
            return "-inf"
        raise ValueError(f"unexpected finite float {value} in exact data")
    return str(value)


def _lift_texts(p: int, lifts) -> list:
    """Each (unit, v) lift of `_texts` as the rational unit * p**v, in lowest terms."""
    return [str(u * p**v) if v >= 0 else f"{u}/{p**-v}" for u, v in lifts]


def _scalar_json(scalar) -> dict:
    """A p-adic scalar as its canonical lift plus an explicit precision."""
    lifts, (precision,), text = _texts(scalar)
    (lift,) = _lift_texts(scalar.prime, lifts)
    return {"lift": lift, "precision": _encode_exact(precision), "repr": text}


def _eisenstein_json(element) -> dict:
    """An element of L as a pi-coordinate vector with explicit precisions."""
    lifts, precisions, text = _texts(element)
    return {
        "coordinates": _lift_texts(element.prime, lifts),
        "coordinate_precisions": [_encode_exact(N) for N in precisions],
        "pi_precision": _encode_exact(element.pi_precision()),
        "repr": text,
    }


def _hodge_dict(hodge):
    if hodge is None:
        return None
    _, _, k_used, certificate, beta, v_beta, epsilon, alpha, v_alpha = hodge
    if alpha is not None:
        alpha = "infinity" if alpha is ALPHA_INFINITY else _scalar_json(alpha)
    return {
        "k_used": k_used,
        "certificate_pi_digits": certificate,
        "beta": _eisenstein_json(beta),
        "v_beta": _encode_exact(v_beta),
        "epsilon": epsilon,
        "alpha": alpha,
        "v_alpha": _encode_exact(v_alpha),
    }


def classify(p, a, b, precision=None, k=None, k_cap=_DEFAULT_K_CAP, *,
             curve=None) -> ImageReport:
    """Classify the image of the p-adic Galois representation of one curve.

    precision is the requested beta certificate in pi_e-digits; k forces the
    refinement level d_{p**(2k+1)}/d_{p**2k}.  With k=None the level is
    chosen adaptively (just enough to make beta visible, capped at k_cap >= 1;
    classification never needs visibility, it only enriches the report).
    curve may pass WeierstrassCurve(p, a, b) already built, so that its
    reduction data is not computed again; it must be that curve.
    """
    if k_cap < 1:
        raise ValueError(f"the level cap must be at least 1, got {k_cap}")
    if curve is None:
        curve = WeierstrassCurve(p, a, b)
    elif (curve.prime, curve.a, curve.b) != (p, a, b):
        raise ValueError("curve is not WeierstrassCurve(p, a, b)")
    red = curve.reduction
    e = red.defect
    hyps = []  # (condition, holds), in the order the gates run

    def report(label, canonical=False, hodge=None, n0=None, index=None):
        return ImageReport(
            prime=p,
            defect=e,
            reduction_type=red.potential_type,
            supersingular=red.supersingular,
            v_min_discriminant=red.v_min_discriminant,
            canonical_subgroup=canonical,
            hodge=hodge,
            n0=n0,
            image_label=label,
            index_at_level=index,
            hypotheses_checked=tuple(hyps),
        )

    if red.potential_type == MULTIPLICATIVE:
        hyps.append(("potentially_good_reduction", False))
        return report(out_of_scope_label(REASON_MULTIPLICATIVE), canonical=None)

    if not red.supersingular:
        hyps.append(("e|p+1" if e in (3, 4, 6) else "supersingular_reduction", False))
        # Ordinary reduction always carries a canonical subgroup.
        return report(out_of_scope_label(REASON_ORDINARY), canonical=True)

    hyps.append(("p>7", p > 7))
    if e in (1, 2):
        # Good supersingular reduction over Q_p or a quadratic extension:
        # the image is the full normalizer, granted the mod-p containment
        # we cannot check from (A, B) alone.
        hyps.append(("supersingular_reduction", True))
        hyps.append(("mod_p_image_in_Cns_plus (assumed)", True))
        if p <= 7:
            return report(out_of_scope_label(REASON_SMALL_PRIME))
        return report(FULL_LABEL, index=1)

    # e in {3, 4, 6}: the pi-adic deformation pipeline.
    v_j, v_jm = curve.v_j, curve.v_j_minus_1728
    if k is None:
        k = max(1, min(k_cap, adaptive_level(e, beta_pi_digits(e, v_j, v_jm))))
    if precision is not None:
        # classify() treats precision as a cap on the certificate; it never
        # raises k (use hodge_parameters directly for request semantics).
        if precision < e:
            raise ValueError(f"precision {precision} is below e = {e} pi-digits")
        precision = min(precision, k * e + 1)
    try:
        hodge = hodge_parameters(curve, k=k, precision=precision)
    except NormalizationError:
        # Only reachable for p=5 with e=6, where e >= p-1 breaks the
        # expansion; the small-prime gate below reports it.
        hodge = None
    canonical = has_canonical_subgroup(e, v_j, v_jm)

    hyps.append(("e|p+1", True))
    hyps.append(("no_canonical_subgroup", not canonical))
    if canonical:
        return report(out_of_scope_label(REASON_CANONICAL), canonical=True, hodge=hodge)
    if p <= 7:
        return report(out_of_scope_label(REASON_SMALL_PRIME), hodge=hodge)

    index = index_at_stabilization(p, e, red.v_min_discriminant)
    if hodge is not None and hodge.beta.is_exact_zero:
        # beta = 0 exactly: the curve behaves like a CM lift, the image is
        # contained in C_ns+ at every level and n0 is undefined.
        hyps.append(("beta_is_exactly_zero", True))
        return report(FULL_LABEL, hodge=hodge, index=index)

    n0 = stabilization_level(e, v_j, v_jm)
    hyps.append(("p>sqrt(n0+1)", p * p > n0 + 1))
    if p * p <= n0 + 1:
        return report(out_of_scope_label(REASON_LEVEL_VS_PRIME), hodge=hodge, n0=n0)
    label = index3_label(n0) if index == 3 else preimage_label(n0)
    return report(label, hodge=hodge, n0=n0, index=index)


def per_prime_index_bound(p: int, n: int, mod_p_case: str = "contained", j_invariant=None):
    """Exact bound on [GL2(Z_p) : image] when the mod-p image lies in C_ns+(p).

    mod_p_case is "contained" or "equal"; the p=3 row is only valid when the
    mod-3 image equals the full normalizer.  Supplying j_invariant screens
    out the single excluded j for which the p=5 row can fail.
    """
    check_odd_prime(p)
    if n < 1:
        raise ValueError(f"level exponent n must be >= 1, got {n}")
    if mod_p_case not in ("contained", "equal"):
        raise ValueError(f"mod_p_case must be 'contained' or 'equal', got {mod_p_case!r}")
    if p == 3 and mod_p_case != "equal":
        raise ValueError("the p=3 bound needs the mod-3 image equal to C_ns+(3)")
    if j_invariant is not None and Fraction(j_invariant) == EXCLUDED_J_INVARIANT:
        raise ExcludedJInvariantError(
            f"j = {EXCLUDED_J_INVARIANT} is excluded from the index table"
        )
    if p == 3:
        return 3 ** (2 * n)
    if p == 5:
        return max(2 * 5 ** (2 * n - 1), 30)
    if p == 7:
        return max(3 * 7 ** (2 * n - 1), 147)
    return (p - 1) * p ** (2 * n - 1) // 2


class AdelicBound(NamedTuple):
    bound_a: float
    bound_b: float


def delta_correction(x: float) -> float:
    """1 / (log(log(x+40) + 7.6) - 0.903), defined for x > -0.75."""
    return 1.0 / (math.log(math.log(x + 40.0) + 7.6) - 0.903)


def adelic_bound(h_j) -> AdelicBound:
    """Both adelic index bounds at logarithmic Weil height h_j >= 0.

    Raises ValueError for a negative or non-finite h_j, and for one so large
    that a bound overflows a double (from about h_j = 3.85e93).

    bound_a = 1.6e17 * (h + 480)**3.11
    bound_b = 7e17 * (h + 270)**(2 + 3.251 * delta_correction(12 h))
    """
    h = float(h_j)
    if not 0.0 <= h < math.inf:
        raise ValueError(f"h_j must be a finite nonnegative real, got {h_j!r}")
    try:
        bound_a = 1.6e17 * (h + 480.0) ** 3.11
        bound_b = 7e17 * (h + 270.0) ** (2.0 + 3.251 * delta_correction(12.0 * h))
    except OverflowError:
        bound_a = bound_b = math.inf
    if not (math.isfinite(bound_a) and math.isfinite(bound_b)):
        raise ValueError(f"h_j = {h_j!r} is too large: the bounds overflow a double")
    return AdelicBound(bound_a, bound_b)
