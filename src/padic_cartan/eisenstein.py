"""Arithmetic in the Eisenstein extension L = Q_p(pi_e), pi_e**e = -p.

Elements are stored as e coordinates over Q_p: x = sum(c[i] * pi_e**i).
Because v(c[i]) is an integer and v(pi_e**i) = i/e, the coordinate valuations
sit in distinct classes mod 1, so the valuation of x is exactly
min(v(c[i]) + i/e) whenever it is visible at the carried precision.

Precision is tracked per coordinate through :class:`~.padic.PadicScalar`;
``pi_precision`` converts that to an absolute precision in pi_e-digits.

Products run on one integer form: (i, unit, floor f, relative precision) for
each coordinate not exactly 0, f the valuation, or N for a zero known to p**N.
`__mul__`, `__pow__` and `inverse` share the kernel `_product` on it and build
PadicScalars only at their end.  Coordinates a_i and b_j give the term
a_i.unit * b_j.unit * p**(f_a + f_b), known modulo p**min(N_a + f_b, N_b + f_a),
at index i + j; from index e on it folds through pi**e = -p (unit negated,
floor and precision raised by 1).  Each result coordinate sums its terms as
one integer over p**base, base the least floor a term can have, normalized
once modulo the least of their precisions.  That equals adding the terms one
at a time as PadicScalars: every partial sum is exact modulo a precision no
smaller than that least one, and the normal form depends only on the value
modulo p**N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import CosetViolationError, PrecisionError
from .padic import INFINITY, PadicScalar, _normal, _scalar, power_by_squaring

_ALLOWED_E = (3, 4, 6)


class EisensteinElement:
    """An element of L = Q_p(pi_e) with bounded-precision coordinates."""

    __slots__ = ("prime", "ram_index", "coords")

    def __init__(self, prime: int, ram_index: int, coords):
        if ram_index not in _ALLOWED_E:
            raise ValueError(f"ramification index must be one of {_ALLOWED_E}")
        coords = tuple(coords)
        if len(coords) != ram_index:
            raise ValueError(f"need {ram_index} coordinates, got {len(coords)}")
        for c in coords:
            if not isinstance(c, PadicScalar) or c.prime != prime:
                raise ValueError("coordinates must be PadicScalars over the same p")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "ram_index", ram_index)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("EisensteinElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, e: int) -> "EisensteinElement":
        return cls(p, e, [PadicScalar.exact_zero(p)] * e)

    @classmethod
    def from_scalar(cls, scalar: PadicScalar, e: int) -> "EisensteinElement":
        coords = [PadicScalar.exact_zero(scalar.prime)] * e
        coords[0] = scalar
        return cls(scalar.prime, e, coords)

    @classmethod
    def from_rational(cls, value, p: int, e: int, prec_p) -> "EisensteinElement":
        return cls.from_scalar(PadicScalar.from_rational(value, p, prec_p), e)

    @classmethod
    def pi_monomial(cls, scalar: PadicScalar, power: int, e: int) -> "EisensteinElement":
        """scalar * pi_e**power, any integer power (reduced via pi**e = -p)."""
        return cls.from_scalar(scalar, e).mul_pi_power(power)

    # -- views ---------------------------------------------------------------

    def pi_precision(self):
        """Absolute precision in pi_e-digits: min over i of e*N_i + i."""
        e = self.ram_index
        out = INFINITY
        for i, c in enumerate(self.coords):
            if c.abs_precision != INFINITY:
                out = min(out, e * c.abs_precision + i)
        return out

    def valuation(self) -> Fraction:
        """Exact valuation in (1/e)Z; raises if not visible at this precision."""
        e = self.ram_index
        best = floor = INFINITY  # in pi_e-digits, e*v(c[i]) + i
        for i, c in enumerate(self.coords):
            if c.unit:
                best = min(best, e * c.valuation + i)
            else:
                floor = min(floor, e * c.abs_precision + i)
        if best == INFINITY:
            if floor == INFINITY:
                return INFINITY
            raise PrecisionError(
                f"element is zero to precision; valuation only known >= {Fraction(floor, e)}"
            )
        if floor < best:
            raise PrecisionError(
                f"valuation ambiguous: visible term at {Fraction(best, e)}, "
                f"precision floor {Fraction(floor, e)}"
            )
        return Fraction(best, e)

    def valuation_floor(self):
        """Provable lower bound on the valuation (never raises)."""
        e = self.ram_index
        out = min(e * c.valuation_floor() + i for i, c in enumerate(self.coords))
        return INFINITY if out == INFINITY else Fraction(out, e)

    def is_zero_to_precision(self) -> bool:
        return all(c.unit == 0 for c in self.coords)

    @property
    def is_exact_zero(self) -> bool:
        return all(c.is_exact_zero for c in self.coords)

    def as_padic_scalar(self) -> PadicScalar:
        """Coordinate 0, provided every other coordinate vanishes to precision."""
        for i, c in enumerate(self.coords[1:], start=1):
            if c.unit:
                raise CosetViolationError(
                    f"pi_e**{i} component {c!r} does not cancel"
                )
        return self.coords[0]

    def truncate_pi(self, pi_digits: int) -> "EisensteinElement":
        """Reduce to absolute precision pi_e**pi_digits."""
        e = self.ram_index
        coords = []
        for i, c in enumerate(self.coords):
            # Coordinate i carries pi-precision e*N + i; invert that.
            need = -((i - pi_digits) // e)
            coords.append(c.reduce_abs_precision(need))
        return EisensteinElement(self.prime, e, coords)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "EisensteinElement"):
        if self.prime != other.prime or self.ram_index != other.ram_index:
            raise ValueError("mixed fields")

    def __add__(self, other):
        if not isinstance(other, EisensteinElement):
            if not isinstance(other, (int, PadicScalar, Fraction)):
                return NotImplemented
            other = _embed(other, self)
        self._check(other)
        return EisensteinElement(
            self.prime,
            self.ram_index,
            [a + b for a, b in zip(self.coords, other.coords)],
        )

    __radd__ = __add__

    def __neg__(self):
        return EisensteinElement(self.prime, self.ram_index, [-c for c in self.coords])

    def __sub__(self, other):
        if not isinstance(other, (EisensteinElement, int, PadicScalar, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, EisensteinElement):
            if not isinstance(other, (int, PadicScalar, Fraction)):
                return NotImplemented
            return EisensteinElement(
                self.prime, self.ram_index, [c * other for c in self.coords]
            )
        self._check(other)
        p, e = self.prime, self.ram_index
        return _element(p, e, _product(p, e, _terms(self), _terms(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, EisensteinElement):
            if not isinstance(other, (int, PadicScalar, Fraction)):
                return NotImplemented
            return EisensteinElement(
                self.prime, self.ram_index, [c / other for c in self.coords]
            )
        if self.is_exact_zero:
            if other.is_exact_zero:
                raise ZeroDivisionError("0/0")
            return self
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        p, e = self.prime, self.ram_index
        one, mul = [(0, 1, 0, INFINITY)], partial(_product, p, e)
        return _element(p, e, power_by_squaring(_terms(self), exponent, one, mul))

    def mul_pi_power(self, power: int) -> "EisensteinElement":
        """Multiply by pi_e**power exactly (any sign)."""
        e, p = self.ram_index, self.prime
        coords = [PadicScalar.exact_zero(p)] * e
        for i, c in enumerate(self.coords):
            if c.is_exact_zero:
                continue
            shift, index = divmod(i + power, e)
            moved = c.shift(shift)
            if shift % 2:
                moved = -moved
            coords[index] = moved  # distinct i land on distinct indices
        return EisensteinElement(p, e, coords)

    def inverse(self) -> "EisensteinElement":
        """Inverse via the leading monomial and a geometric tail.

        self = lead * pi**lead_i * (1 - w), v(w) > 0.  The tail sum(w**j) is
        the doubling product (1 + w)(1 + w**2)(1 + w**4)... on the integer
        form, until the powers left out reach P = w.pi_precision(); it is
        truncated to pi**P, all that w is known to, before it is multiplied
        by 1/(lead * pi**lead_i).  Requires the valuation to be visible at
        the carried precision.
        """
        v = self.valuation()  # raises PrecisionError when ambiguous
        if v == INFINITY:
            raise ZeroDivisionError("inverting zero")
        p, e = self.prime, self.ram_index
        lead_i = (e * v).numerator % e  # v(c[i]) + i/e == v picks i = e*v mod e
        lead = self.coords[lead_i]
        inv_lead = EisensteinElement.pi_monomial(lead.inverse(), -lead_i, e)
        w = 1 - self * inv_lead
        prec = w.pi_precision()
        if prec == INFINITY:
            if w.valuation() == INFINITY:
                return inv_lead  # exact monomial: no tail to sum
            raise PrecisionError("cannot invert an exact non-monomial")
        floor = w.valuation_floor()
        if floor <= 0:
            raise PrecisionError("tail not contracting; precision too low")
        # (1 + w)(1 + w**2)...: `one + square` is 1 + square, not yet normalized.
        one, square = [(0, 1, 0, INFINITY)], _terms(w)
        tail, left_out = _product(p, e, one, one + square), 2 * int(e * floor)
        while left_out < prec:  # left_out: pi-digit floor of the first power left out
            square = _product(p, e, square, square)
            tail = _product(p, e, tail, one + square)
            left_out *= 2
        return _element(p, e, tail).truncate_pi(prec) * inv_lead

    # -- comparison ----------------------------------------------------------

    def is_congruent(self, other, pi_digits=None) -> bool:
        diff = self - other if isinstance(other, EisensteinElement) else self - _embed(other, self)
        if pi_digits is None:
            return diff.is_zero_to_precision()
        return diff.valuation_floor() >= Fraction(pi_digits, self.ram_index)

    def __eq__(self, other):
        if not isinstance(other, (EisensteinElement, int, PadicScalar, Fraction)):
            return NotImplemented
        try:
            return self.is_congruent(other)
        except (ValueError, PrecisionError):
            return NotImplemented

    __hash__ = None

    def __repr__(self):
        bits = []
        for i, c in enumerate(self.coords):
            if c.unit == 0 and not c.is_precision_zero:
                continue
            inner = repr(c)
            if " " in inner:
                inner = f"({inner})"
            bits.append(inner if i == 0 else f"{inner}*pi^{i}" if i > 1 else f"{inner}*pi")
        if not bits:
            return "0" if self.is_exact_zero else f"O(pi^{self.pi_precision()})"
        return " + ".join(bits)


def _terms(x: EisensteinElement):
    """The integer form of x: (i, unit, floor f, relative precision N - f) of
    each coordinate not exactly 0, f = N for a zero known to p**N."""
    out = []
    for i, c in enumerate(x.coords):
        if c.unit:
            out.append((i, c.unit, c.valuation, c.abs_precision - c.valuation))
        elif c.abs_precision != INFINITY:
            out.append((i, 0, c.abs_precision, 0))
    return out


def _product(p: int, e: int, x, y):
    """The integer form of x * y; an index listed twice in x or y is a sum."""
    if not x or not y:
        return []
    base = min(f for _, _, f, _ in x) + min(f for _, _, f, _ in y)
    total, precision = [0] * e, [INFINITY] * e
    for i, ua, fa, ra in x:
        for j, ub, fb, rb in y:
            k, f, t = i + j, fa + fb, ua * ub
            N = f + (ra if ra < rb else rb)  # min(N_a + f_b, N_b + f_a)
            if t and f != base:
                t *= p ** (f - base)
            if k >= e:  # pi**e = -p
                k, t, N = k - e, -p * t, N + 1
            total[k] += t
            if N < precision[k]:
                precision[k] = N
    out = []
    for k, N in enumerate(precision):
        u, f = _normal(p, total[k], base, N)
        if u:
            out.append((k, u, f, N - f))
        elif N != INFINITY:
            out.append((k, 0, N, 0))
    return out


def _element(p: int, e: int, form) -> EisensteinElement:
    """The EisensteinElement of an integer form; absent indices are exact zeros."""
    coords = [_scalar(p, 0, INFINITY, INFINITY)] * e
    for i, u, f, r in form:
        coords[i] = _scalar(p, u, f if u else INFINITY, f + r)
    return EisensteinElement(p, e, coords)


def _embed(value, like: EisensteinElement) -> EisensteinElement:
    if isinstance(value, PadicScalar):
        return EisensteinElement.from_scalar(value, like.ram_index)
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot embed {type(value).__name__} in L")
    target = INFINITY
    for c in like.coords:
        target = min(target, c.abs_precision)
    return EisensteinElement.from_rational(value, like.prime, like.ram_index, target)
