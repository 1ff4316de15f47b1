"""Deformation parameters (beta, alpha) of a potentially supersingular curve.

beta is read off the formal-group logarithm of a good model over
L = Q_p(pi_e): the ratio -(p/pi_e) * d_{p^(2k+1)} / d_{p^(2k)} stabilizes
p-adically and its limit is certified mod pi_e**(k*e+1) already at level k.
alpha is the Lubin-Tate parameter attached to beta and the sign epsilon;
together they pin the Galois image data (canonical subgroup, stabilization
level n0) used by the classifier.

On exact A, B of v >= 0 where both sums of a level keep one term, not exact,
the route only multiplies p-free units, cuts them at powers of p and divides
monomials (Caruso-Roe-Vaccon, "Tracking p-adic precision", 2014): beta's floors
and precisions follow from (p, e, k, v(A), v(B)) and its unit varies as
u_a**dm * u_b**dn, so `_beta_plan` runs the route once a shape; all else, per call.

Closed-form valuations (v(beta) from v(j), the six-entry v(alpha) table) are
implemented separately from the log route so each can check the other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .curve import WeierstrassCurve, check_supersingular, good_model_over_L, normalized_shape
from .eisenstein import EisensteinElement, _element, _pi_digits
from .errors import (
    CanonicalSubgroupError,
    NormalizationError,
    PadicCartanError,
    PrecisionError,
)
from .formal_log import _PLAN_CACHE, _price_level, _sum_plan, yasuda_coefficient
from .padic import INFINITY, PadicScalar

# v(alpha) = (c + sign*v)/d with (c, sign) by v(Delta_min): e = 6, 4, 3 with
# epsilon = +1, then e = 3, 4, 6 with epsilon = -1.  epsilon = -sign, as
# `alpha_from_beta` inverts beta (v(alpha) falls as v grows) iff epsilon = +1.
_V_ALPHA_TABLE = {2: (4, -1), 3: (3, -1), 4: (5, -1), 8: (2, 1), 9: (1, 1), 10: (1, 1)}
# pi-digit targets of d_(p^(2k+1)) and d_(p^2k) by e: as v(d_(p^2k)) = -k and v(d_(p^(2k+1)))
# >= 1/e - (k+1), 2 - e and 1 keep k*e+1 relative pi-digits on each; e more is a guard.
_TARGETS = {e: (2, 1 + e) for e in (3, 4, 6)}


class _AlphaInfinity:
    """Sentinel for alpha = infinity (beta = 0 with epsilon = +1).

    Its inverse is the exact zero scalar; see `alpha_inverse`.
    """

    def __repr__(self):
        return "ALPHA_INFINITY"

    def __reduce__(self):  # pickle and copy return the module's one instance
        return "ALPHA_INFINITY"


ALPHA_INFINITY = _AlphaInfinity()


def alpha_inverse(alpha, p: int | None = None):
    """alpha**-1 with the convention infinity**-1 = 0 (exactly)."""
    if alpha is ALPHA_INFINITY:
        if p is None:
            raise ValueError("p is needed to build the zero inverse of infinity")
        return PadicScalar.exact_zero(p)
    if alpha.is_exact_zero:
        return ALPHA_INFINITY
    return alpha.inverse()


def epsilon_sign(v_min_discriminant: int) -> int:
    """+1 when v(Delta_min) in {2,3,4}, -1 when in {8,9,10}."""
    if v_min_discriminant in _V_ALPHA_TABLE:
        return -_V_ALPHA_TABLE[v_min_discriminant][1]
    if v_min_discriminant in (0, 6):
        raise ValueError(
            f"v(Delta_min)={v_min_discriminant}: defect is 1 or 2, no epsilon"
        )
    raise ValueError(
        f"v(Delta_min)={v_min_discriminant} is not a potentially good "
        "supersingular class"
    )


def beta_pi_digits(e: int, v_j, v_j_minus_1728):
    """e*v(beta) = (e/d)*v - 1 in pi_e-digits from the j-invariant; INFINITY for CM.

    v(beta) = v(deforming coefficient) - 1/e, and v = d * v(that coefficient)
    is the valuation of the invariant that measures it (`normalized_shape`).
    """
    i, d = normalized_shape(e)
    v = (v_j, v_j_minus_1728)[i]
    return v if v == INFINITY else e // d * v - 1


def v_beta_closed_form(e: int, v_j, v_j_minus_1728):
    """v(beta) = `beta_pi_digits` / e as a Fraction; INFINITY in the CM cases."""
    w = beta_pi_digits(e, v_j, v_j_minus_1728)
    return w if w == INFINITY else Fraction(w, e)


def adaptive_level(e: int, beta_digits) -> int:
    """Smallest k >= 1 whose certificate window k*e+1 exceeds beta_digits = e*v(beta).

    That makes beta visibly nonzero; the CM cases (v(beta) = INFINITY) get 1.
    """
    if beta_digits == INFINITY:
        return 1
    return max(1, (beta_digits - 1) // e + 1)


def v_alpha_table(e: int, v_min_discriminant: int, v_j, v_j_minus_1728) -> int:
    """The six-entry table for v(alpha) on potential e-lifts (j not CM).

    v(alpha) = (c + sign*v)/d with (c, sign) by v(Delta_min), where v and d
    are the valuation of the invariant that measures the deforming
    coefficient and the power it carries (`normalized_shape`).
    """
    if v_min_discriminant not in _V_ALPHA_TABLE:
        raise ValueError(f"v(Delta_min)={v_min_discriminant} out of range")
    if e != 12 // math.gcd(12, v_min_discriminant):
        raise ValueError(f"e={e} inconsistent with v(Delta_min)={v_min_discriminant}")
    i, d = normalized_shape(e)
    v = (v_j, v_j_minus_1728)[i]
    if v == INFINITY:
        raise ValueError(f"v(alpha) table needs {('j != 0', 'j != 1728')[i]}")
    c, sign = _V_ALPHA_TABLE[v_min_discriminant]
    q, r = divmod(c + sign * v, d)
    if r:
        raise ValueError(
            f"valuations v(j)={v_j}, v(j-1728)={v_j_minus_1728} violate the "
            f"coset constraint for e={e}"
        )
    return q


def has_canonical_subgroup(e: int, v_j, v_j_minus_1728) -> bool:
    """True when 0 < v(beta) + 1/e < 1: too close to the supersingular boundary.

    v(beta) is `v_beta_closed_form`, so e must be in {3, 4, 6} (ValueError
    otherwise); the CM cases (v(beta) = INFINITY) have no canonical subgroup.
    """
    return -1 < beta_pi_digits(e, v_j, v_j_minus_1728) < e - 1


def stabilization_level(e: int, v_j, v_j_minus_1728) -> int:
    """Level n0 = floor(v(beta) + 1/e) past which the image stops growing.

    Twist-invariant.  Raises CanonicalSubgroupError when the curve has a
    canonical subgroup, and ValueError for potential CM (v(beta) = INFINITY).
    """
    if has_canonical_subgroup(e, v_j, v_j_minus_1728):
        raise CanonicalSubgroupError(
            "curve has a canonical subgroup; no stabilization level"
        )
    beta_digits = beta_pi_digits(e, v_j, v_j_minus_1728)
    if beta_digits == INFINITY:
        raise ValueError("n0 undefined for potential CM (all levels stabilize)")
    return (beta_digits + 1) // e


def beta_from_logarithm(model, k: int = 1) -> EisensteinElement:
    """beta via the coefficient ratio at level k, mod pi_e**(k*e+1).

    `model` is a GoodModelL (or any (a_l, b_l) pair of EisensteinElements)
    for a normalized good model over L.  A model of one exact entry each (every
    `good_model_over_L`) of a shape with a `_beta_plan` gets, after the same
    checks, the plan's beta times u_a**dm * u_b**dn mod p**r; others `_beta_route`.
    """
    a_l, b_l = model
    if not isinstance(a_l, EisensteinElement) or not isinstance(b_l, EisensteinElement):
        raise TypeError("model coefficients must be EisensteinElements over L")
    e, p = a_l.ram_index, a_l.prime
    check_supersingular(p, e)
    if e >= p - 1:
        raise NormalizationError(f"the ratio route needs e < p-1 (e={e}, p={p})")
    if k < 0:
        raise ValueError("k must be nonnegative")
    _price_level(p, e, k, _TARGETS[e][1])  # a deep level is refused before any sum
    a, b = a_l.form, b_l.form
    if len(a) == 1 == len(b) and a[0][3] == INFINITY == b[0][3] and (plan := _beta_plan(
            p, e, k, e * a[0][2] + a[0][0], e * b[0][2] + b[0][0])):
        form, dm, dn = plan
        return _element(p, e, [(i, u and u * pow(a[0][1], dm, p**r) * pow(b[0][1], dn, p**r)
                                % p**r, f, r) for i, u, f, r in form])
    return _beta_route(a_l, b_l, k)


def _beta_route(a_l, b_l, k: int) -> EisensteinElement:
    """beta at level k by the two Yasuda sums and one division in L."""
    p, e = a_l.prime, a_l.ram_index
    num = yasuda_coefficient(a_l, b_l, p ** (2 * k + 1), _TARGETS[e][0])
    if num.is_exact_zero:  # the CM lifts: beta = 0 exactly, whatever the divisor
        return num
    den = yasuda_coefficient(a_l, b_l, p ** (2 * k), _TARGETS[e][1])
    beta = (num / den).mul_pi_power(e - 1)  # -(p/pi) = pi**(e-1)
    return beta.truncate_pi(k * e + 1)


@lru_cache(maxsize=_PLAN_CACHE)
def _beta_plan(p: int, e: int, k: int, wA: int, wB: int):
    """(form, dm, dn): `_beta_route` on exact units 1 at pi-valuations wA, wB, and the
    numerator's kept (m, n) less the divisor's; None off the module docstring's shapes."""
    plans = [_sum_plan(p, e, p**j // 2, j, wA, wB, target)
             for j, target in zip((2 * k + 1, 2 * k), _TARGETS[e])]
    if wA < 0 or wB < 0 or any(len(terms) != 1 or exact for terms, _, exact in plans):
        return None  # yasuda_coefficient cuts A and B to the target only at v >= 0
    (mn, nn, _), (md, nd, _) = (terms[0] for terms, _, _ in plans)
    units = [_element(p, e, ((w % e, 1, w // e, INFINITY),)) for w in (wA, wB)]
    return _beta_route(*units, k).form, mn - md, nn - nd


def alpha_from_beta(beta: EisensteinElement, epsilon: int):
    """alpha from beta and the sign: -p*(beta/pi)**-1 or -p*beta*pi**(3-e)."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
    if beta.is_exact_zero:
        return ALPHA_INFINITY if epsilon == 1 else PadicScalar.exact_zero(beta.prime)
    if beta.is_zero_to_precision():
        raise PrecisionError(
            "beta is zero to the carried precision; increase k to resolve alpha"
        )
    if epsilon == 1:
        q = beta.mul_pi_power(-1).as_padic_scalar()
        return -(q.inverse().shift(1))
    q = beta.mul_pi_power(3 - beta.ram_index).as_padic_scalar()
    return -q.shift(1)


class HodgeParameters(NamedTuple):
    """The deformation data of one potentially supersingular curve."""

    prime: int
    e: int
    k_used: int
    certificate_pi_digits: int
    beta: EisensteinElement
    v_beta: object  # Fraction, or INFINITY in the CM cases
    epsilon: int
    alpha: object  # PadicScalar, ALPHA_INFINITY, or None if unresolved
    v_alpha: object  # int, or +-INFINITY in the CM cases


def hodge_parameters(
    curve: WeierstrassCurve,
    k: int | None = None,
    precision: int | None = None,
) -> HodgeParameters:
    """Compute (beta, epsilon, alpha) for a curve with defect e in {3,4,6}.

    With k=None the level is `adaptive_level`, just large enough to make beta
    visibly nonzero (non-CM).  A precision >= 1 raises k to certify it, and beta is cut to it.
    The log route is always cross-checked against the closed forms and the
    k-1 certificate; failures raise PadicCartanError.
    """
    red = curve.reduction
    e = red.defect
    if e not in (3, 4, 6):
        raise NormalizationError(
            f"defect {e}: no pi-adic deformation parameters (needs e in {{3,4,6}})"
        )
    p = curve.prime
    v_j, v_jm = curve.v_j, curve.v_j_minus_1728
    beta_digits, v_closed = beta_pi_digits(e, v_j, v_jm), v_beta_closed_form(e, v_j, v_jm)
    if k is None:
        k = adaptive_level(e, beta_digits)
    certificate = k * e + 1 if precision is None else precision
    k = max(k, -((1 - certificate) // e))  # ceil((certificate-1)/e)
    model = good_model_over_L(curve, e)
    if certificate < 1 and k >= 0:  # a negative k is beta_from_logarithm's to refuse
        raise ValueError("precision must be >= 1 pi-digit")
    beta = beta_from_logarithm(model, k)
    if certificate < k * e + 1 and not beta.is_exact_zero:
        beta = beta.truncate_pi(certificate)
    epsilon = epsilon_sign(red.v_min_discriminant)

    if beta.is_exact_zero:
        if v_closed != INFINITY:
            raise PadicCartanError(
                f"log route gives beta = 0 but closed form v(beta) = {v_closed}"
            )
        alpha = alpha_from_beta(beta, epsilon)
        v_alpha = -INFINITY if epsilon == 1 else INFINITY
    elif beta.is_zero_to_precision():
        if beta_digits < certificate:
            raise PadicCartanError(
                f"beta invisible mod pi^{certificate} contradicts "
                f"closed form v(beta) = {v_closed}"
            )
        alpha, v_alpha = None, v_alpha_table(e, red.v_min_discriminant, v_j, v_jm)
    else:
        if _pi_digits(beta.form, e) != beta_digits:
            raise PadicCartanError(
                f"log route v(beta) = {beta.valuation()} != closed form {v_closed}"
            )
        alpha = alpha_from_beta(beta, epsilon)
        v_alpha = v_alpha_table(e, red.v_min_discriminant, v_j, v_jm)
        if alpha.valuation != v_alpha:
            raise PadicCartanError(
                f"alpha valuation {alpha.valuation} != table value {v_alpha}"
            )
    if k >= 1:
        window = min((k - 1) * e + 1, certificate)
        prev = beta_from_logarithm(model, k - 1)
        if not beta.is_congruent(prev, window):
            raise PadicCartanError(
                f"beta certificates at k={k - 1} and k={k} disagree mod pi^{window}"
            )

    return HodgeParameters(p, e, k, certificate, beta, v_closed, epsilon, alpha, v_alpha)
