"""Short Weierstrass models over Q_p: invariants, reduction, normalization.

A curve's invariants come from the integer valuations v(a), v(b), v(disc)
recorded when it is built; `discriminant`, `j_invariant` and `j_minus_1728`
are lazy `Fraction` properties that nothing else reads.  Everything is exact,
the Eisenstein coordinates of `good_model_over_L` included.  p = 2, 3 are
rejected outright, so y**2 = x**3 + A*x + B models and the scaling
(A, B) -> (u**-4 A, u**-6 B) cover all isomorphisms that matter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .eisenstein import EisensteinElement, _element, _pi_digits
from .errors import NormalizationError, SingularCurveError, UnsupportedPrimeError
from .padic import _ONE, INFINITY, _scale, check_odd_prime, is_prime, vp

_HASSE_BUDGET = 2 * 10**6  # the largest (p-1)/2 whose products hasse_residue runs
GOOD_ORDINARY = "good_ordinary"
GOOD_SUPERSINGULAR = "good_supersingular"
MULTIPLICATIVE = "multiplicative"


class _Frozen:
    """A record set once through vars(self): equal, hashed and shown on its `_shown` fields."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self):
        return tuple(map(vars(self).__getitem__, self._shown))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._shown, self._key()))
        return f"{type(self).__name__}({shown})"


class WeierstrassCurve(_Frozen):
    """y**2 = x**3 + a*x + b over Q_p, p > 3.

    v_a (INFINITY for a = 0), v_b and v_discriminant are set when it is built.
    """

    _shown = ("prime", "a", "b")

    def __init__(self, prime: int, a: Fraction, b: Fraction):
        if not isinstance(prime, int) or prime <= 3 or not is_prime(prime):
            raise UnsupportedPrimeError("p must be an odd prime > 3")
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        va, vb = vp(a, prime), vp(b, prime)
        # v(disc) = v(4a**3 + 27b**2); the terms cancel or sum to 0 only if their v tie.
        vdisc = min(3 * va, 2 * vb)
        if 3 * va == 2 * vb:
            n = 4 * a.numerator**3 * b.denominator**2 + 27 * b.numerator**2 * a.denominator**3
            if n == 0:
                raise SingularCurveError(f"discriminant vanishes for a={a}, b={b}")
            vdisc = vp(n, prime) - 3 * vp(a.denominator, prime) - 2 * vp(b.denominator, prime)
        vars(self).update(prime=prime, a=a, b=b, v_a=va, v_b=vb, v_discriminant=vdisc)

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

    @property
    def v_j(self):
        # j = -1728 (4a)**3 / disc, and 1728 = 2**6 3**3 is a unit for p > 3.
        return 3 * self.v_a - self.v_discriminant

    @property
    def v_j_minus_1728(self):
        return 2 * self.v_b - self.v_discriminant

    @cached_property
    def reduction(self) -> ReductionData:
        """`semistability_defect` of this curve, computed once."""
        return semistability_defect(self)


def minimal_model(curve: WeierstrassCurve) -> WeierstrassCurve:
    """Scale by p-powers to the minimal integral model.

    For potentially good reduction the result has 0 <= v(discriminant) < 12;
    multiplicative inputs just become minimal-integral.
    """
    p = curve.prime
    s = min(v // k for v, k in ((curve.v_a, 4), (curve.v_b, 6)) if v != INFINITY)
    if s == 0:
        return curve
    scale = Fraction(p) ** s
    return WeierstrassCurve(p, curve.a / scale**4, curve.b / scale**6)


def quadratic_twist(curve: WeierstrassCurve, d) -> WeierstrassCurve:
    """Twist by squarefree d: (a, b) -> (d**2 a, d**3 b)."""
    d = Fraction(d)
    if d == 0:
        raise ValueError("twist by zero")
    return WeierstrassCurve(curve.prime, d**2 * curve.a, d**3 * curve.b)


class ReductionData(NamedTuple):
    """Semistability defect and potential reduction type of a minimal model."""

    minimal: WeierstrassCurve
    defect: int
    v_min_discriminant: int
    potential_type: str
    supersingular: bool


def _mod_p(value, p: int) -> int:
    num, den = value.numerator, value.denominator
    if den % p == 0:
        raise ValueError(f"{value} is not p-integral")
    return num * pow(den, -1, p) % p


def hasse_residue(a: Fraction, b: Fraction, p: int) -> int:
    """Coefficient of x**(p-1) in (x**3 + a*x + b)**((p-1)/2), mod p.

    Zero exactly when the reduced curve is supersingular.  The terms are
    M!/(i! j! k!) (a x)**j b**k x**(3i), i + j + k = M = (p-1)/2, 3i + j = p - 1.
    At the least i, k is 0 or 1, so the first multinomial is (i+1)...M / j!,
    and each later one is the one before times j(j-1)(j-2)/((i+1)(k+1)(k+2)).
    """
    check_odd_prime(p)
    M = (p - 1) // 2
    if M > _HASSE_BUDGET:  # priced from p alone, before the products run
        raise ValueError(f"the Hasse invariant at p = {p} needs {M} factorials mod p, "
                         f"over the budget {_HASSE_BUDGET:.0e}")
    am, bm = _mod_p(a, p), _mod_p(b, p)
    i = (p + 2) // 4  # the least i that keeps k >= 0
    j, k = p - 1 - 3 * i, 2 * i - M
    num = den = 1
    for t in range(i + 1, M + 1):
        num = num * t % p
    for t in range(2, j + 1):
        den = den * t % p
    coeff, total = num * pow(den, -1, p) % p, 0
    while True:
        total = (total + coeff * pow(am, j, p) * pow(bm, k, p)) % p
        if j < 3:  # the next i would make j negative
            return total
        coeff = coeff * j * (j - 1) * (j - 2) * pow((i + 1) * (k + 1) * (k + 2), -1, p) % p
        i, j, k = i + 1, j - 3, k + 2


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
    vdisc = cmin.v_discriminant
    if cmin.v_j < 0:
        return ReductionData(cmin, 1 if cmin.v_a == 0 else 2, vdisc, MULTIPLICATIVE, False)
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


def normalized_shape(e: int) -> tuple[int, int]:
    """(i, d): the shape of a good model over L = Q_p(pi_e), e in {3, 4, 6}.

    (A_L, B_L)[i] deforms and the other coefficient is a unit.  The invariant
    (j, j - 1728)[i] measures it, with valuation d times its own: A_L deforms
    for e in {3, 6}, where v(j) = 3 v(A_L), and B_L for e = 4, where
    v(j - 1728) = 2 v(B_L).
    """
    if e in (3, 6):
        return 0, 3
    if e == 4:
        return 1, 2
    raise NormalizationError(f"no Eisenstein normalization for e={e}")


def check_supersingular(p: int, e: int) -> None:
    """NormalizationError unless e divides p + 1: supersingular reduction over L = Q_p(pi_e)."""
    if (p + 1) % e:
        raise NormalizationError(
            f"e={e} does not divide p+1={p + 1}; reduction is not supersingular")


def deforming_coefficient(model) -> EisensteinElement:
    """The coefficient of a normalized good model over L that deforms.

    `model` is an (A_L, B_L) pair; raises NormalizationError unless the other
    coefficient is a unit.
    """
    i, _ = normalized_shape(model[0].ram_index)
    unit = model[1 - i]
    if unit.is_exact_zero or _pi_digits(unit.form, unit.ram_index) != 0:
        raise NormalizationError(f"model not normalized: v({'AB'[1 - i]}_L) must be 0")
    return model[i]


def good_model_over_L(curve: WeierstrassCurve, e: int) -> GoodModelL:
    """Scale the minimal model to good reduction over L = Q_p(pi_e), exactly.

    The minimal model is p-integral, so lam = lcm(den a, den b) is a p-adic
    unit and (lam**4 a, lam**6 b) is an isomorphic model with integer
    coefficients; beta moves by lam**((p-1) p**(2k)) = 1 mod p**(2k+1), far
    past its certificate.  Each is wrapped from its one-entry form (`_scale`
    of the exact 1), and u = pi_e**s with s = e * v(disc_min)/12 lands the
    `normalized_shape` with exact coordinates.  Raises NormalizationError
    when the curve is not a potential e-lift (wrong defect, or e does not
    divide p + 1 so the reduction is not supersingular).
    """
    p = curve.prime
    normalized_shape(e)  # raises for e outside {3, 4, 6}
    data = curve.reduction
    if data.potential_type == MULTIPLICATIVE:
        raise NormalizationError("potentially multiplicative curve has no good L-model")
    if data.defect != e:
        raise NormalizationError(
            f"semistability defect is {data.defect}, not the requested {e}"
        )
    check_supersingular(p, e)
    s = e * data.v_min_discriminant // 12
    (an, ad), (bn, bd) = data.minimal.a.as_integer_ratio(), data.minimal.b.as_integer_ratio()
    lam = lcm(ad, bd)
    model = GoodModelL(*(_element(p, e, _scale(p, _ONE, c, 1)).mul_pi_power(-k * s)
                         for c, k in ((lam**4 // ad * an, 4), (lam**6 // bd * bn, 6))))
    deforming_coefficient(model)  # good reduction: the other coefficient is a unit
    return model
