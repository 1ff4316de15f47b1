"""Short Weierstrass models over Q_p: invariants, reduction, normalization.

Everything here is exact rational arithmetic; only `good_model_over_L` emits
bounded-precision Eisenstein coordinates.  p = 2, 3 are rejected outright, so
y**2 = x**3 + A*x + B models and the scaling (A, B) -> (u**-4 A, u**-6 B)
cover all isomorphisms that matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .eisenstein import EisensteinElement
from .errors import (
    NormalizationError,
    PrecisionError,
    SingularCurveError,
    UnsupportedPrimeError,
)
from .padic import INFINITY, PadicScalar, check_odd_prime, vp

GOOD_ORDINARY = "good_ordinary"
GOOD_SUPERSINGULAR = "good_supersingular"
MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class WeierstrassCurve:
    """y**2 = x**3 + a*x + b over Q_p, p > 3."""

    prime: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        check_odd_prime(self.prime)
        if self.prime == 3:
            raise UnsupportedPrimeError("p = 3 is not supported")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.discriminant == 0:
            raise SingularCurveError(
                f"discriminant vanishes for a={self.a}, b={self.b}"
            )

    @cached_property
    def discriminant(self) -> Fraction:
        return Fraction(-16) * (4 * self.a**3 + 27 * self.b**2)

    @cached_property
    def j_invariant(self) -> Fraction:
        return Fraction(-1728) * (4 * self.a) ** 3 / self.discriminant

    @cached_property
    def j_minus_1728(self) -> Fraction:
        # Identity: j - 1728 = 1728 * 432 * b**2 / discriminant.
        return Fraction(1728 * 432) * self.b**2 / self.discriminant

    def v(self, value):
        return vp(value, self.prime)

    @property
    def v_discriminant(self):
        return self.v(self.discriminant)

    @property
    def v_j(self):
        return self.v(self.j_invariant)

    @property
    def v_j_minus_1728(self):
        return self.v(self.j_minus_1728)

    @cached_property
    def reduction(self) -> ReductionData:
        """`semistability_defect` of this curve, computed once."""
        return semistability_defect(self)


class CurveInvariants(NamedTuple):
    discriminant: Fraction
    j_invariant: Fraction
    j_minus_1728: Fraction
    v_discriminant: object
    v_j: object
    v_j_minus_1728: object


def invariants(curve: WeierstrassCurve) -> CurveInvariants:
    """Discriminant, j, j - 1728 and their exact valuations."""
    return CurveInvariants(
        curve.discriminant,
        curve.j_invariant,
        curve.j_minus_1728,
        curve.v_discriminant,
        curve.v_j,
        curve.v_j_minus_1728,
    )


def minimal_model(curve: WeierstrassCurve) -> WeierstrassCurve:
    """Scale by p-powers to the minimal integral model.

    For potentially good reduction the result has 0 <= v(discriminant) < 12;
    multiplicative inputs just become minimal-integral.
    """
    p = curve.prime
    va = vp(curve.a, p)
    vb = vp(curve.b, p)
    if va == INFINITY:
        s = vb // 6
    elif vb == INFINITY:
        s = va // 4
    else:
        s = min(va // 4, vb // 6)
    if s == 0:
        return curve
    scale = Fraction(p) ** int(s)
    return WeierstrassCurve(p, curve.a / scale**4, curve.b / scale**6)


def quadratic_twist(curve: WeierstrassCurve, d) -> WeierstrassCurve:
    """Twist by squarefree d: (a, b) -> (d**2 a, d**3 b)."""
    d = Fraction(d)
    if d == 0:
        raise ValueError("twist by zero")
    return WeierstrassCurve(curve.prime, d**2 * curve.a, d**3 * curve.b)


@dataclass(frozen=True)
class ReductionData:
    """Semistability defect and potential reduction type of a minimal model."""

    minimal: WeierstrassCurve
    defect: int
    v_min_discriminant: int
    potential_type: str
    supersingular: bool


def _mod_p(value: Fraction, p: int) -> int:
    num, den = value.numerator, value.denominator
    if den % p == 0:
        raise ValueError(f"{value} is not p-integral")
    return num * pow(den, -1, p) % p


def hasse_residue(a: Fraction, b: Fraction, p: int) -> int:
    """Coefficient of x**(p-1) in (x**3 + a*x + b)**((p-1)/2), mod p.

    Zero exactly when the reduced curve is supersingular.
    """
    check_odd_prime(p)
    am, bm = _mod_p(Fraction(a), p), _mod_p(Fraction(b), p)
    M = (p - 1) // 2
    fact = [1] * (M + 1)
    for i in range(1, M + 1):
        fact[i] = fact[i - 1] * i % p
    total = 0
    # x**(3i) * (a x)**j * b**k with i+j+k = M and 3i + j = p - 1.
    for i in range((p - 1 + 3) // 4, (p - 1) // 3 + 1):
        j = p - 1 - 3 * i
        k = 2 * i - M
        if j < 0 or k < 0:
            continue
        coeff = fact[M] * pow(fact[i] * fact[j] % p * fact[k] % p, -1, p) % p
        total = (total + coeff * pow(am, j, p) * pow(bm, k, p)) % p
    return total


def semistability_defect(curve: WeierstrassCurve) -> ReductionData:
    """Defect e of the minimal model together with the potential type.

    e = 12/gcd(12, v(disc_min)) in the potentially good case; multiplicative
    curves get e in {1, 2} by whether the minimal model is multiplicative
    already.  For e in {3, 4, 6} potential supersingularity is equivalent to
    e | p + 1; for e in {1, 2} it is read off the Hasse invariant of the good
    (possibly twisted) model.
    """
    p = curve.prime
    cmin = minimal_model(curve)
    vdisc = int(cmin.v_discriminant)
    vj = cmin.v_j
    if vj != INFINITY and vj < 0:
        multiplicative_now = vp(cmin.a, p) == 0
        defect = 1 if multiplicative_now else 2
        return ReductionData(cmin, defect, vdisc, MULTIPLICATIVE, False)
    from math import gcd

    defect = 12 // gcd(12, vdisc)
    if defect in (3, 4, 6):
        ss = (p + 1) % defect == 0
    elif defect == 1:
        ss = hasse_residue(cmin.a, cmin.b, p) == 0
    else:  # defect 2: the twist by p has good reduction
        good = minimal_model(quadratic_twist(cmin, p))
        ss = hasse_residue(good.a, good.b, p) == 0
    kind = GOOD_SUPERSINGULAR if ss else GOOD_ORDINARY
    return ReductionData(cmin, defect, vdisc, kind, ss)


class GoodModelL(NamedTuple):
    """Coefficients of a good model over L = Q_p(pi_e)."""

    a: EisensteinElement
    b: EisensteinElement


def _pi_monomial_from_rational(q, p, e, power, prec_pi) -> EisensteinElement:
    try:
        scalar = PadicScalar.from_rational(q, p, INFINITY)
    except PrecisionError:
        # Denominator with a unit factor: no exact expansion, embed truncated.
        shift, index = divmod(power, e)
        coord_prec = -((index - prec_pi) // e)  # ceil((prec_pi - index)/e)
        scalar = PadicScalar.from_rational(q, p, coord_prec - shift)
    return EisensteinElement.pi_monomial(scalar, power, e)


def good_model_over_L(
    curve: WeierstrassCurve, e: int, prec_pi: int = 24
) -> GoodModelL:
    """Scale the minimal model to good reduction over L = Q_p(pi_e).

    Uses u = pi_e**s with s = e * v(disc_min)/12, which lands the normalized
    shape: v(B_L) = 0 for e in {3, 6} and v(A_L) = 0 for e = 4.  Raises
    NormalizationError when the curve is not a potential e-lift (wrong defect,
    or e does not divide p + 1 so the reduction is not supersingular).
    """
    p = curve.prime
    if e not in (3, 4, 6):
        raise NormalizationError(f"no Eisenstein normalization for e={e}")
    data = curve.reduction
    if data.potential_type == MULTIPLICATIVE:
        raise NormalizationError("potentially multiplicative curve has no good L-model")
    if data.defect != e:
        raise NormalizationError(
            f"semistability defect is {data.defect}, not the requested {e}"
        )
    if (p + 1) % e:
        raise NormalizationError(
            f"e={e} does not divide p+1={p + 1}; reduction is not supersingular"
        )
    s = e * data.v_min_discriminant // 12
    if 12 * s != e * data.v_min_discriminant:
        raise NormalizationError("v(disc_min) incompatible with e")  # unreachable
    cmin = data.minimal
    a_l = _pi_monomial_from_rational(cmin.a, p, e, -4 * s, prec_pi)
    b_l = _pi_monomial_from_rational(cmin.b, p, e, -6 * s, prec_pi)
    # Good reduction sanity: the normalized coordinate must be a unit.
    anchor = a_l if e == 4 else b_l
    if anchor.is_exact_zero or anchor.valuation() != 0:
        raise NormalizationError("scaled model is not a unit-discriminant model")
    return GoodModelL(a_l, b_l)
