"""Bounded-precision p-adic scalars and exact p-adic combinatorics.

A :class:`PadicScalar` is ``unit * p**valuation + O(p**abs_precision)`` with the
unit stored reduced modulo ``p**(abs_precision - valuation)``, i.e. to its full
relative precision.  Exact zero (valuation ``+inf``, infinite precision) is
distinct from a precision zero ``O(p**N)``, whose valuation is only known to be
``>= N``.

The combinatorial helpers (`val_factorial`, `multinomial_padic`, ...) never
build the underlying factorials when the arguments are large: valuations come
from Legendre's formula and unit parts from cached period-product tables, so a
multinomial with top index around 10**9 costs O(log n) word operations.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache

from .errors import PrecisionError, UnsupportedPrimeError

INFINITY = float("inf")

# Largest factorial-unit table we are willing to materialize (entries).
_MAX_TABLE = 1 << 26


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
    if isinstance(value, Fraction):
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
    """Exact big-integer multinomial coefficient (the test oracle path)."""
    if min(parts, default=0) < 0 or sum(parts) != n:
        raise ValueError(f"parts {parts} do not partition {n}")
    import math

    out = math.factorial(n)
    for a in parts:
        out //= math.factorial(a)
    return out


class _FactorialUnitTable:
    """Period products of p-free integers mod p**digits.

    table[r] = prod of 1 <= i <= r with p ∤ i, mod P = p**digits.  Over a full
    period the product of the units of Z/P is -1 (p odd), which turns the
    p-free part of n! into O(log_p n) table lookups.
    """

    def __init__(self, p: int, digits: int):
        P = p**digits
        if P > _MAX_TABLE:
            raise PrecisionError(
                f"factorial unit table p**{digits} = {P} exceeds the size cap"
            )
        self.p = p
        self.digits = digits
        self.modulus = P
        tab = array("q", bytes(8 * P)) if P > 4096 else array("q", [0] * P)
        acc = 1
        tab[0] = 1
        for i in range(1, P):
            if i % p:
                acc = acc * i % P
            tab[i] = acc
        self.table = tab

    def pfree_prefix(self, m: int) -> int:
        """prod of p-free integers in [1, m], mod p**digits."""
        q, r = divmod(m, self.modulus)
        value = self.table[r]
        if q % 2:
            value = self.modulus - value
        return value % self.modulus

    def factorial_unit(self, n: int) -> int:
        """Unit part n! / p**v_p(n!) mod p**digits."""
        out = 1
        while n:
            out = out * self.pfree_prefix(n) % self.modulus
            n //= self.p
        return out


_unit_tables: dict[int, _FactorialUnitTable] = {}


def _unit_table(p: int, digits: int) -> _FactorialUnitTable:
    tab = _unit_tables.get(p)
    if tab is None or tab.digits < digits:
        tab = _FactorialUnitTable(p, digits)
        _unit_tables[p] = tab
    return tab


def factorial_unit(n: int, p: int, digits: int) -> int:
    """Unit part of n! modulo p**digits, in O(log_p n) after table setup."""
    check_odd_prime(p)
    if digits < 1:
        raise ValueError("need at least one digit")
    return _unit_table(p, digits).factorial_unit(n) % p**digits


def multinomial_padic(n: int, parts, p: int, digits: int) -> "PadicScalar":
    """Multinomial coefficient as a PadicScalar with `digits` unit digits.

    Exact valuation via Legendre; unit part modulo p**digits via the period
    tables, so n may be far beyond big-integer reach.
    """
    parts = tuple(parts)
    v = multinomial_valuation(n, parts, p)
    P = p**digits
    num = factorial_unit(n, p, digits)
    den = 1
    for a in parts:
        den = den * _unit_table(p, digits).factorial_unit(a) % P
    unit = num * pow(den, -1, P) % P
    return PadicScalar(p, unit, v, v + digits)


class PadicScalar:
    """An element of Q_p carried to finite absolute precision."""

    __slots__ = ("prime", "valuation", "unit", "abs_precision")

    def __init__(self, prime: int, unit: int, valuation, abs_precision):
        # Normalizing constructor; accepts unnormalized unit/valuation.
        check_odd_prime(prime)
        if abs_precision != INFINITY and abs_precision != int(abs_precision):
            raise ValueError("abs_precision must be an integer or +inf")
        object.__setattr__(self, "prime", prime)
        if unit == 0:
            object.__setattr__(self, "valuation", INFINITY)
            object.__setattr__(self, "unit", 0)
            object.__setattr__(self, "abs_precision", abs_precision)
            return
        shift = vp(unit, prime)
        valuation += shift
        unit //= prime**shift
        rel = abs_precision - valuation
        if rel <= 0:
            # Indistinguishable from zero at this precision.
            object.__setattr__(self, "valuation", INFINITY)
            object.__setattr__(self, "unit", 0)
            object.__setattr__(self, "abs_precision", abs_precision)
            return
        if rel != INFINITY:
            unit %= prime ** int(rel)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "abs_precision", abs_precision)

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
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            other = PadicScalar.from_rational(other, self.prime, self.abs_precision)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        p = self.prime
        N = min(self.abs_precision, other.abs_precision)
        base = min(self.valuation_floor(), other.valuation_floor())
        if base == INFINITY or base >= N:
            return PadicScalar.zero_to_precision(p, N)
        if N == INFINITY:
            # Both terms exact and nonzero: stay exact.
            return PadicScalar.from_rational(
                self.lift_fraction() + other.lift_fraction(), p, INFINITY
            )
        base = int(base)
        total = 0
        for term in (self, other):
            if term.unit:
                total += term.unit * p ** int(term.valuation - base)
        window = int(N) - base
        total %= p**window
        if total == 0:
            return PadicScalar.zero_to_precision(p, N)
        return PadicScalar(p, total, base, N)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicScalar(self.prime, -self.unit, self.valuation, self.abs_precision)

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
        if isinstance(other, (int, Fraction)):
            # Exact scaling: relative precision is preserved.
            if other == 0:
                return PadicScalar.exact_zero(self.prime)
            if self.is_exact_zero:
                return self
            q = Fraction(other)
            v = vp(q, self.prime)
            if self.is_precision_zero:
                return PadicScalar.zero_to_precision(self.prime, self.abs_precision + v)
            num = q.numerator // self.prime ** vp(q.numerator, self.prime)
            den = q.denominator // self.prime ** vp(q.denominator, self.prime)
            rel = self.rel_precision
            if rel == INFINITY:
                # Exact iff the p-free denominator divides the unit.
                if self.unit % den:
                    raise PrecisionError(
                        f"1/{den} has no exact finite expansion; reduce precision first"
                    )
                unit = self.unit // den * num
            else:
                P = self.prime ** int(rel)
                unit = self.unit * num * pow(den, -1, P) % P
            return PadicScalar(
                self.prime, unit, self.valuation + v, self.abs_precision + v
            )
        if self.is_exact_zero or other.is_exact_zero:
            return PadicScalar.exact_zero(self.prime)
        if self.unit == 0 or other.unit == 0:
            N = self.valuation_floor() + other.valuation_floor()
            return PadicScalar.zero_to_precision(self.prime, N)
        rel = min(self.rel_precision, other.rel_precision)
        v = self.valuation + other.valuation
        if rel == INFINITY:
            N, unit = INFINITY, self.unit * other.unit
        else:
            N = v + rel
            unit = self.unit * other.unit % self.prime ** int(rel)
        return PadicScalar(self.prime, unit, v, N)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            q = Fraction(other)
            return self * Fraction(q.denominator, q.numerator)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "PadicScalar":
        if self.unit == 0:
            raise ZeroDivisionError("inverting a (precision) zero")
        rel = self.rel_precision
        if rel == INFINITY:
            # Exact nonzero value: the inverse is again an exact rational.
            return PadicScalar.from_rational(
                1 / self.lift_fraction(), self.prime, INFINITY
            )
        rel = int(rel)
        unit = pow(self.unit, -1, self.prime**rel)
        v = -self.valuation
        return PadicScalar(self.prime, unit, v, v + rel)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** -exponent
        out = PadicScalar(self.prime, 1, 0, INFINITY)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p**k exactly."""
        if self.is_exact_zero:
            return self
        if self.unit == 0:
            return PadicScalar.zero_to_precision(self.prime, self.abs_precision + k)
        return PadicScalar(
            self.prime, self.unit, self.valuation + k, self.abs_precision + k
        )

    # -- comparison ---------------------------------------------------------

    def is_congruent(self, other, abs_precision=None) -> bool:
        """True when self - other is zero to the given (or shared) precision."""
        diff = self - other
        if abs_precision is None:
            return diff.is_zero_to_precision()
        return diff.valuation_floor() >= abs_precision

    def __eq__(self, other):
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
