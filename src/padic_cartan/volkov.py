"""Deformation parameters (beta, alpha) of a potentially supersingular curve.

beta is read off the formal-group logarithm of a good model over
L = Q_p(pi_e): the ratio -(p/pi_e) * d_{p^(2k+1)} / d_{p^(2k)} stabilizes
p-adically and its limit is certified mod pi_e**(k*e+1) already at level k.
alpha is the Lubin-Tate parameter attached to beta and the sign epsilon;
together they pin the Galois image data (canonical subgroup, stabilization
level n0) used by the classifier.

Closed-form valuations (v(beta) from v(j), the six-entry v(alpha) table) are
implemented separately from the log route so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curve import WeierstrassCurve, good_model_over_L
from .eisenstein import EisensteinElement
from .errors import (
    CanonicalSubgroupError,
    NormalizationError,
    PadicCartanError,
    PrecisionError,
)
from .formal_log import yasuda_coefficient
from .padic import INFINITY, PadicScalar

NEG_INFINITY = -INFINITY

# v(Delta_min) classes of potential e-lifts, keyed by sign of epsilon.
_EPSILON_PLUS = (2, 3, 4)
_EPSILON_MINUS = (8, 9, 10)


class _AlphaInfinity:
    """Sentinel for alpha = infinity (beta = 0 with epsilon = +1).

    Its inverse is the exact zero scalar; see `alpha_inverse`.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
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
    if v_min_discriminant in _EPSILON_PLUS:
        return 1
    if v_min_discriminant in _EPSILON_MINUS:
        return -1
    if v_min_discriminant in (0, 6):
        raise ValueError(
            f"v(Delta_min)={v_min_discriminant}: defect is 1 or 2, no epsilon"
        )
    raise ValueError(
        f"v(Delta_min)={v_min_discriminant} is not a potentially good "
        "supersingular class"
    )


def v_beta_closed_form(e: int, v_j, v_j_minus_1728):
    """v(beta) from the j-invariant alone; INFINITY in the CM cases."""
    if e in (3, 6):
        if v_j == INFINITY:
            return INFINITY
        return Fraction(v_j, 3) - Fraction(1, e)
    if e == 4:
        if v_j_minus_1728 == INFINITY:
            return INFINITY
        return Fraction(v_j_minus_1728, 2) - Fraction(1, 4)
    raise ValueError(f"no beta for defect e={e}")


def adaptive_level(e: int, v_beta) -> int:
    """Smallest k >= 1 whose certificate window k*e+1 exceeds e*v(beta).

    That makes beta visibly nonzero; the CM cases (v(beta) = INFINITY) get 1.
    """
    if v_beta == INFINITY:
        return 1
    return max(1, math.floor(v_beta - Fraction(1, e)) + 1)


def v_alpha_table(e: int, v_min_discriminant: int, v_j, v_j_minus_1728) -> int:
    """The six-entry table for v(alpha) on potential e-lifts (j not CM)."""
    if v_min_discriminant in _EPSILON_PLUS:
        low = True
    elif v_min_discriminant in _EPSILON_MINUS:
        low = False
    else:
        raise ValueError(f"v(Delta_min)={v_min_discriminant} out of range")
    if e != 12 // math.gcd(12, v_min_discriminant):
        raise ValueError(f"e={e} inconsistent with v(Delta_min)={v_min_discriminant}")
    if e == 4:
        if v_j_minus_1728 == INFINITY:
            raise ValueError("v(alpha) table needs j != 1728")
        num = (3 - v_j_minus_1728) if low else (1 + v_j_minus_1728)
        den = 2
    else:
        if v_j == INFINITY:
            raise ValueError("v(alpha) table needs j != 0")
        if e == 3:
            num = (5 - v_j) if low else (2 + v_j)
        else:
            num = (4 - v_j) if low else (1 + v_j)
        den = 3
    q, r = divmod(num, den)
    if r:
        raise ValueError(
            f"valuations v(j)={v_j}, v(j-1728)={v_j_minus_1728} violate the "
            f"coset constraint for e={e}"
        )
    return q


def has_canonical_subgroup(e: int, v_j, v_j_minus_1728) -> bool:
    """True when the curve is too close to the supersingular boundary."""
    if e in (3, 6):
        return v_j in (1, 2)
    if e == 4:
        return v_j_minus_1728 == 1
    raise ValueError(f"canonical-subgroup test needs e in {{3,4,6}}, got {e}")


def stabilization_level(e: int, v_j, v_j_minus_1728) -> int:
    """Level n0 past which the image stops growing; twist-invariant."""
    if has_canonical_subgroup(e, v_j, v_j_minus_1728):
        raise CanonicalSubgroupError(
            "curve has a canonical subgroup; no stabilization level"
        )
    if e in (3, 6):
        if v_j == INFINITY:
            raise ValueError("n0 undefined for potential CM (all levels stabilize)")
        return v_j // 3
    if e == 4:
        if v_j_minus_1728 == INFINITY:
            raise ValueError("n0 undefined for potential CM (all levels stabilize)")
        return v_j_minus_1728 // 2
    raise ValueError(f"stabilization level needs e in {{3,4,6}}, got {e}")


def beta_from_logarithm(model, k: int = 1, precision: int | None = None) -> EisensteinElement:
    """beta via the coefficient ratio at level k, mod pi_e**(k*e+1).

    `model` is a GoodModelL (or any (a_l, b_l) pair of EisensteinElements)
    for a normalized good model over L.  `precision` may lower, but never
    raise, the certified pi-precision k*e + 1.
    """
    a_l, b_l = model
    if not isinstance(a_l, EisensteinElement) or not isinstance(b_l, EisensteinElement):
        raise TypeError("model coefficients must be EisensteinElements over L")
    e, p = a_l.ram_index, a_l.prime
    if (p + 1) % e:
        raise NormalizationError(f"e={e} does not divide p+1; not supersingular")
    if e >= p - 1:
        raise NormalizationError(f"the ratio route needs e < p-1 (e={e}, p={p})")
    if k < 0:
        raise ValueError("k must be nonnegative")
    certificate = k * e + 1
    if precision is not None:
        if precision < 1:
            raise ValueError("precision must be >= 1 pi-digit")
        if precision > certificate:
            raise PrecisionError(
                f"level k={k} certifies beta only mod pi^{certificate}; "
                f"requested pi^{precision} needs a larger k"
            )
    # v(d_{p^2k}) = -k and v(d_{p^(2k+1)}) >= 1/e - (k+1), so these absolute
    # targets leave k*e+1 relative pi-digits on each; one extra e as guard.
    guard = e
    num = yasuda_coefficient(a_l, b_l, p ** (2 * k + 1), 2 - e + guard)
    den = yasuda_coefficient(a_l, b_l, p ** (2 * k), 1 + guard)
    beta = (num / den).mul_pi_power(e - 1)  # -(p/pi) = pi**(e-1)
    if beta.is_exact_zero:
        return beta
    return beta.truncate_pi(certificate if precision is None else precision)


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


@dataclass(frozen=True)
class HodgeParameters:
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
    verify: bool = True,
) -> HodgeParameters:
    """Compute (beta, epsilon, alpha) for a curve with defect e in {3,4,6}.

    With k=None the level is `adaptive_level`, just large enough to make beta
    visibly nonzero (non-CM).
    verify=True cross-checks the log route against the closed forms and the
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
    v_closed = v_beta_closed_form(e, v_j, v_jm)
    if k is None:
        k = adaptive_level(e, v_closed)
    if precision is not None:
        k = max(k, -((1 - precision) // e))  # ceil((precision-1)/e)
    model = good_model_over_L(curve, e)
    beta = beta_from_logarithm(model, k, precision)
    certificate = k * e + 1 if precision is None else precision
    epsilon = epsilon_sign(red.v_min_discriminant)

    if beta.is_exact_zero:
        alpha = ALPHA_INFINITY if epsilon == 1 else PadicScalar.exact_zero(p)
        v_alpha = NEG_INFINITY if epsilon == 1 else INFINITY
    else:
        v_alpha = v_alpha_table(e, red.v_min_discriminant, v_j, v_jm)
        alpha = None if beta.is_zero_to_precision() else alpha_from_beta(beta, epsilon)

    if verify:
        if beta.is_exact_zero:
            if v_closed != INFINITY:
                raise PadicCartanError(
                    f"log route gives beta = 0 but closed form v(beta) = {v_closed}"
                )
        elif beta.is_zero_to_precision():
            if v_closed < Fraction(certificate, e):
                raise PadicCartanError(
                    f"beta invisible mod pi^{certificate} contradicts "
                    f"closed form v(beta) = {v_closed}"
                )
        else:
            if beta.valuation() != v_closed:
                raise PadicCartanError(
                    f"log route v(beta) = {beta.valuation()} != closed form {v_closed}"
                )
            if alpha.valuation != v_alpha:
                raise PadicCartanError(
                    f"alpha valuation {alpha.valuation} != table value {v_alpha}"
                )
        if k >= 1:
            window = min((k - 1) * e + 1, certificate)
            prev = beta_from_logarithm(model, k - 1, None)
            if not beta.is_congruent(prev, window):
                raise PadicCartanError(
                    f"beta certificates at k={k - 1} and k={k} disagree mod pi^{window}"
                )

    return HodgeParameters(
        prime=p,
        e=e,
        k_used=k,
        certificate_pi_digits=certificate,
        beta=beta,
        v_beta=v_closed,
        epsilon=epsilon,
        alpha=alpha,
        v_alpha=v_alpha,
    )
