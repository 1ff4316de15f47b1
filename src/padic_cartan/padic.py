"""Bounded-precision p-adic scalars and exact p-adic combinatorics.

A :class:`PadicScalar` is ``unit * p**valuation + O(p**abs_precision)`` with the
unit stored reduced modulo ``p**(abs_precision - valuation)``, i.e. to its full
relative precision.  Exact zero (valuation ``+inf``, infinite precision) is
distinct from a precision zero ``O(p**N)``, whose valuation is only known to be
``>= N``.

The combinatorial helpers (`val_factorial`, `multinomial_padic`, ...) never
build the underlying factorials when the arguments are large: valuations come
from Legendre's formula and unit parts mod p**d from the base-p digits and O(d)
cached block polynomials, so a multinomial with top index around 10**9 costs
O(p * d * log_p n) word operations.

The prime is checked where a scalar is built from caller data: the
constructor, which the classmethods use (Miller-Rabin runs once per prime).
Arithmetic builds its results through `_scalar`, from checked operands.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import PrecisionError, UnsupportedPrimeError

INFINITY = float("inf")


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the word-sized inputs used here."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # This base set is deterministic for n < 3.3 * 10**24.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
        raise UnsupportedPrimeError(f"need an odd prime, got {p!r}")
    return p


def vp(value: int | Fraction, p: int):
    """Exact p-adic valuation of a rational; INFINITY for 0."""
    if value == 0:
        return INFINITY
    if type(value) is not int and isinstance(value, Fraction):
        return vp(value.numerator, p) - vp(value.denominator, p)
    n, v = abs(value), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre: sum of floor(n / p**i)."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    check_odd_prime(p)
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def val_binomial_prime_power(j: int, a: int, p: int) -> int:
    """v_p(binomial(p**j, a)) = j - v_p(a) for 1 <= a <= p**j."""
    check_odd_prime(p)
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    if not 1 <= a <= p**j:
        raise ValueError(f"need 1 <= a <= p**{j}, got a={a}")
    return j - vp(a, p)


def multinomial_valuation(n: int, parts: tuple[int, ...] | list[int], p: int) -> int:
    """v_p of n! / prod(part!), parts summing to n."""
    if min(parts, default=0) < 0 or sum(parts) != n:
        raise ValueError(f"parts {parts} do not partition {n}")
    return val_factorial(n, p) - sum(val_factorial(a, p) for a in parts)


def multinomial_exact(n: int, parts) -> int:
    """Exact big-integer multinomial: exact Yasuda sums, and the p-adic oracle."""
    if min(parts, default=0) < 0 or sum(parts) != n:
        raise ValueError(f"parts {parts} do not partition {n}")
    out = math.factorial(n)
    for a in parts:
        out //= math.factorial(a)
    return out


@lru_cache(maxsize=256)
def _block_polynomials(p: int, digits: int) -> tuple:
    """F_j(x) = prod_{i <= p**j, p ∤ i} (x + i) mod p**digits, for 1 <= j < digits.

    F_j is cut to degree < ceil(digits / j), exact at any x divisible by p**j;
    F_(j+1)(x) = prod_{t < p} F_j(x + t*p**j).  O(p * digits**2) word operations.
    """
    P = p**digits
    poly = [1] + [0] * (digits - 1)
    for i in range(1, p):  # F_1, one factor (x + i) at a time
        poly = [(i * c + (poly[k - 1] if k else 0)) % P for k, c in enumerate(poly)]
    blocks = [()]
    while len(blocks) < digits:
        blocks.append(tuple(poly))
        product = [1] + [0] * (-(-digits // len(blocks)) - 1)
        for t in range(p):
            shift, shifted = t * p ** (len(blocks) - 1), list(poly)
            for lo in range(len(shifted) - 1):  # F_j(x + shift), synthetic division
                for k in range(len(shifted) - 2, lo - 1, -1):
                    shifted[k] = (shifted[k] + shift * shifted[k + 1]) % P
            product = [sum(product[i] * shifted[k - i] for i in range(k + 1)) % P
                       for k in range(len(product))]
        poly = product
    return tuple(blocks)


def factorial_unit(n: int, p: int, digits: int) -> int:
    """Unit part n! / p**v_p(n!) modulo P = p**digits, from the digits of n.

    n! = U(n) * p**(n//p) * (n//p)! with U(m) the product of the p-free i <= m,
    U(m) = (-1)**(m // P) * U(m mod P), and base-p digit a_j of m mod P adds
    a_j blocks F_j (Granville, "Binomial coefficients modulo prime powers").
    """
    check_odd_prime(p)
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if digits < 1:
        raise ValueError("need at least one digit")
    P = p**digits
    blocks = _block_polynomials(p, digits)
    out = 1
    while n:
        q, m = divmod(n, P)
        out, x, step = (-out if q % 2 else out), 0, P
        for poly in reversed(blocks[1:]):
            step //= p
            count, m = divmod(m, step)
            for _ in range(count):
                value = 0
                for c in reversed(poly):
                    value = (value * x + c) % P
                out, x = out * value % P, x + step
        for i in range(x + 1, x + m + 1):
            out = out * i % P
        n //= p
    return out % P


def multinomial_padic(n: int, parts, p: int, digits: int) -> "PadicScalar":
    """Multinomial coefficient as a PadicScalar with `digits` unit digits.

    Exact valuation via Legendre; unit part modulo p**digits via
    `factorial_unit`, so n may be far beyond big-integer reach.
    """
    parts = tuple(parts)
    v = multinomial_valuation(n, parts, p)
    P = p**digits
    den = math.prod(factorial_unit(a, p, digits) for a in parts)
    unit = factorial_unit(n, p, digits) * pow(den, -1, P) % P
    return PadicScalar(p, unit, v, v + digits)


def power_by_squaring(base, exponent: int, one, mul):
    """base**exponent for exponent >= 0: square-and-multiply from the low bit.

    `mul` is the product: PadicScalar's, or the L kernel's on integer forms.
    `one` is returned for exponent 0 and never multiplied in; the last
    squaring, whose result would go unused, is skipped.
    """
    out = None
    while exponent:
        if exponent & 1:
            out = base if out is None else mul(out, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return one if out is None else out


class PadicScalar:
    """An element of Q_p carried to finite absolute precision."""

    __slots__ = ("prime", "valuation", "unit", "abs_precision")

    def __init__(self, prime: int, unit: int, valuation, abs_precision):
        # Normalizing constructor; accepts unnormalized unit/valuation.
        check_odd_prime(prime)
        if abs_precision != INFINITY:
            if abs_precision != int(abs_precision):
                raise ValueError("abs_precision must be an integer or +inf")
            abs_precision = int(abs_precision)
        _scalar(prime, unit, valuation, abs_precision, self)

    def __setattr__(self, name, value):
        raise AttributeError("PadicScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int) -> "PadicScalar":
        return cls(p, 0, INFINITY, INFINITY)

    @classmethod
    def zero_to_precision(cls, p: int, abs_precision: int) -> "PadicScalar":
        return cls(p, 0, INFINITY, abs_precision)

    @classmethod
    def from_rational(cls, value, p: int, abs_precision) -> "PadicScalar":
        """Represent an exact rational to the given absolute precision."""
        value = Fraction(value)
        if value == 0:
            return cls.exact_zero(p)
        v = vp(value, p)
        num = value.numerator // p ** vp(value.numerator, p)
        den = value.denominator // p ** vp(value.denominator, p)
        rel = abs_precision - v
        if rel == INFINITY:
            if den != 1 and den != -1:
                raise PrecisionError(
                    f"1/{den} has no exact finite expansion; give a finite precision"
                )
            return cls(p, num * den, v, INFINITY)
        if rel <= 0:
            return cls.zero_to_precision(p, abs_precision)
        P = p ** int(rel)
        unit = num * pow(den, -1, P) % P
        return cls(p, unit, v, abs_precision)

    # -- predicates and views ---------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.abs_precision == INFINITY

    @property
    def is_precision_zero(self) -> bool:
        return self.unit == 0 and self.abs_precision != INFINITY

    def is_zero_to_precision(self) -> bool:
        return self.unit == 0

    def valuation_floor(self):
        """Exact valuation, or the provable lower bound for a precision zero."""
        if self.is_precision_zero:
            return self.abs_precision
        return self.valuation

    @property
    def rel_precision(self):
        if self.unit == 0:
            return 0
        return self.abs_precision - self.valuation

    def residue(self) -> int:
        """Leading digit: unit mod p (0 for zeros)."""
        return self.unit % self.prime

    def lift_fraction(self) -> Fraction:
        """The canonical rational representative unit * p**valuation."""
        if self.unit == 0:
            return Fraction(0)
        v = int(self.valuation)
        if v >= 0:
            return Fraction(self.unit * self.prime**v)
        return Fraction(self.unit, self.prime**-v)

    def reduce_abs_precision(self, abs_precision) -> "PadicScalar":
        if abs_precision >= self.abs_precision:
            return self
        return PadicScalar(self.prime, self.unit, self.valuation, abs_precision)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.prime != self.prime:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, (int, Fraction)):
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not isinstance(other, PadicScalar):
            if other == 0:
                return self
            other = PadicScalar.from_rational(other, self.prime, self.abs_precision)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        # A precision zero adds nothing, but no valuation below its floor is certified.
        p, fa, fb = self.prime, self.valuation_floor(), other.valuation_floor()
        base = fa if fa < fb else fb
        total = self.unit * p ** (fa - base) + other.unit * p ** (fb - base)
        return _scalar(p, total, base, min(self.abs_precision, other.abs_precision))

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.prime, -self.unit, self.valuation, self.abs_precision)

    def __sub__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not isinstance(other, PadicScalar):  # an int or Fraction: exact scaling
            return self._scaled(other.numerator, other.denominator)
        if self.is_exact_zero or other.is_exact_zero:
            return self if self.is_exact_zero else other
        fa, fb = self.valuation_floor(), other.valuation_floor()
        N = fa + fb + min(self.abs_precision - fa, other.abs_precision - fb)
        return _scalar(self.prime, self.unit * other.unit, fa + fb, N)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not isinstance(other, PadicScalar):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            sign = 1 if other > 0 else -1
            return self._scaled(sign * other.denominator, sign * other.numerator)
        return self * other.inverse()

    def _scaled(self, num: int, den: int) -> "PadicScalar":
        """self * num / den for ints num and den > 0: a shift by their p-parts,
        and the unit times num's p-free part and the inverse of den's mod p**rel."""
        p = self.prime
        if num == 0 or self.is_exact_zero:
            return _scalar(p, 0, INFINITY, INFINITY)
        vn, vd = vp(num, p), vp(den, p)
        num, den, v = num // p**vn, den // p**vd, vn - vd
        rel = self.rel_precision
        if rel == INFINITY:
            # Exact iff the p-free denominator divides the unit.
            if self.unit % den:
                raise PrecisionError(
                    f"1/{den} has no exact finite expansion; reduce precision first"
                )
            unit = self.unit // den * num
        else:
            P = p ** int(rel)
            unit = self.unit * num * pow(den, -1, P) % P
        return _scalar(p, unit, self.valuation + v, self.abs_precision + v)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "PadicScalar":
        if self.unit == 0:
            raise ZeroDivisionError("inverting a (precision) zero")
        # 1 / (unit * p**v) = p**-v / unit, to the same relative precision.
        sign = 1 if self.unit > 0 else -1
        one = _scalar(self.prime, sign, -self.valuation, self.abs_precision - 2 * self.valuation)
        return one._scaled(1, sign * self.unit)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** -exponent
        return power_by_squaring(self, exponent, _scalar(self.prime, 1, 0, INFINITY), mul)

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p**k exactly."""
        return _scalar(self.prime, self.unit, self.valuation + k, self.abs_precision + k)

    # -- comparison ---------------------------------------------------------

    def is_congruent(self, other, abs_precision=None) -> bool:
        """True when self - other is zero to the given (or shared) precision."""
        diff = self - other
        if abs_precision is None:
            return diff.is_zero_to_precision()
        return diff.valuation_floor() >= abs_precision

    def __eq__(self, other):
        # An EisensteinElement answers through its reflected __eq__.
        if not isinstance(other, (int, Fraction, PadicScalar)):
            return NotImplemented
        try:
            return self.is_congruent(other)
        except (ValueError, PrecisionError):
            return NotImplemented

    __hash__ = None

    def __repr__(self):
        p = self.prime
        if self.is_exact_zero:
            return "0"
        if self.is_precision_zero:
            return f"O({p}^{int(self.abs_precision)})"
        v = int(self.valuation)
        body = f"{self.unit}" if v == 0 else f"{self.unit}*{p}^{v}"
        if self.abs_precision == INFINITY:
            return body
        return f"{body} + O({p}^{int(self.abs_precision)})"


def _scalar(p: int, unit: int, valuation, abs_precision, x=None) -> PadicScalar:
    """unit * p**valuation + O(p**abs_precision), normalized, in x or a new scalar."""
    if x is None:
        x = object.__new__(PadicScalar)
    unit, valuation = _normal(p, unit, valuation, abs_precision)
    _set = object.__setattr__
    _set(x, "prime", p)
    _set(x, "valuation", valuation)
    _set(x, "unit", unit)
    _set(x, "abs_precision", abs_precision)
    return x


def _normal(p: int, unit: int, valuation, abs_precision):
    """(unit, valuation) of unit * p**valuation + O(p**abs_precision) in normal
    form: p does not divide the unit, reduced mod p**(abs_precision - valuation),
    and a zero, exact or to precision, is (0, INFINITY)."""
    if valuation >= abs_precision:
        return 0, INFINITY  # indistinguishable from zero at this precision
    if abs_precision != INFINITY:
        unit %= p ** int(abs_precision - valuation)
    while unit and unit % p == 0:  # stays below p**(abs_precision - valuation)
        unit //= p
        valuation += 1
    return (unit, valuation) if unit else (0, INFINITY)


def newton_polygon(points):
    """Lower Newton polygon of (exponent, valuation) data.

    Accepts either a dense sequence of valuations indexed from 0 or an
    iterable of (exponent, valuation) pairs; valuations may be INFINITY.
    Returns a :class:`NewtonPolygon`.
    """
    pts = list(points)
    if pts and not isinstance(pts[0], (tuple, list)):
        pts = list(enumerate(pts))
    cleaned = []
    seen = set()
    for x, y in pts:
        if x < 0 or x != int(x):
            raise ValueError(f"exponent {x} is not a nonnegative integer")
        if x in seen:
            raise ValueError(f"duplicate exponent {x}")
        seen.add(x)
        if y != INFINITY:
            cleaned.append((int(x), Fraction(y)))
    if not cleaned:
        raise ValueError("all valuations are infinite")
    cleaned.sort()
    hull = []
    for pt in cleaned:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Keep the hull lower-convex: drop (x2, y2) when it lies on or
            # above the chord from (x1, y1) to pt.
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    lowest_exponent = hull[0][0] if pts else 0
    degree = max(x for x, _ in pts)
    return NewtonPolygon(
        points=tuple((x, y) for x, y in pts),
        vertices=tuple(hull),
        segments=tuple(segments),
        zero_root_multiplicity=lowest_exponent,
        degree=degree,
    )


class NewtonPolygon:
    """Result of :func:`newton_polygon`; immutable."""

    __slots__ = ("points", "vertices", "segments", "zero_root_multiplicity", "degree")

    def __init__(self, points, vertices, segments, zero_root_multiplicity, degree):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "zero_root_multiplicity", zero_root_multiplicity)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError("NewtonPolygon is immutable")

    def root_valuations(self):
        """Multiset of root valuations as (valuation, multiplicity) pairs.

        Roots of valuation +inf (the x | f factor) come first; finite
        valuations are the negated slopes, in increasing slope order.
        """
        out = []
        if self.zero_root_multiplicity:
            out.append((INFINITY, self.zero_root_multiplicity))
        for slope, length in self.segments:
            out.append((-slope, length))
        return out

    def __repr__(self):
        segs = ", ".join(f"(slope {s}, len {l})" for s, l in self.segments)
        return f"NewtonPolygon(vertices={list(self.vertices)}, segments=[{segs}])"
