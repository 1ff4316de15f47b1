"""Arithmetic in the Eisenstein extension L = Q_p(pi_e), pi_e**e = -p.

x = sum(c[i] * pi_e**i) is stored as one integer form: the tuple `form` has an
entry (i, unit, floor f, relative precision r) for each coordinate c[i] not
exactly 0, c[i] = unit * p**f + O(p**(f + r)); a PadicScalar is the form of
e = 1.  Invariants: each index appears at most once; p divides no nonzero
unit; a zero known to p**N is (i, 0, N, 0) and an exact zero is absent; a
finite unit is defined only mod p**r (`-` and `mul_pi_power` leave -u).
`coords` is a view that builds the e normalized PadicScalars on demand, for
the JSON writer, `repr`, `as_padic_scalar` and scalar `*` and `/`.  As
v(c[i]) is an integer and v(pi_e**i) = i/e, v(x) = min(v(c[i]) + i/e)
whenever it is visible at the carried precision; it, its provable floor and
`pi_precision` (min of e*(f + r) + i) are read off the form in pi-digits.

`+`, `-`, `*`, `**` (`_power`), `inverse` and the Yasuda sums of `formal_log`
share the kernel `_product`; `inverse` takes its lead entry from the form's
pi-digits and forms 1 - w, the doubling tail and its cut (`_truncate`) on it.
Coordinates a_i and b_j give the term a_i.unit * b_j.unit * p**(f_a + f_b),
known modulo p**min(N_a + f_b, N_b + f_a), at index i + j; from index e on it
folds through pi**e = -p (unit negated, floor and precision raised by 1).
Each result coordinate sums its terms as one integer over p**base, base the
least floor a term can have, normalized once modulo the least of their
precisions.  That equals adding the terms one at a time as PadicScalars:
every partial sum is exact modulo a precision no smaller than that least one,
and the normal form depends only on the value modulo p**N.  So a form that
lists an index twice is a sum, and its product with the exact 1 normalizes
it: that is `+`.  `_power` of a monomial (i, u, f, N - f), n >= 1, is closed:
with folds = i*n // e, ((-1)**folds * u**n mod p**(N - f)) pi**(i*n mod e)
p**(n*f + folds), same relative precision; square-and-multiply gives the same.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import CosetViolationError, PrecisionError
from .padic import INFINITY, PadicScalar, _normal, _scalar, power_by_squaring

_ALLOWED_E = (3, 4, 6)
_ONE = ((0, 1, 0, INFINITY),)  # the form of the exact 1


class EisensteinElement:
    """An element of L = Q_p(pi_e) with bounded-precision coordinates."""

    __slots__ = ("prime", "ram_index", "form")

    def __init__(self, prime: int, ram_index: int, coords):
        if ram_index not in _ALLOWED_E:
            raise ValueError(f"ramification index must be one of {_ALLOWED_E}")
        coords = tuple(coords)
        if len(coords) != ram_index:
            raise ValueError(f"need {ram_index} coordinates, got {len(coords)}")
        form = []
        for i, c in enumerate(coords):
            if not isinstance(c, PadicScalar) or c.prime != prime:
                raise ValueError("coordinates must be PadicScalars over the same p")
            form += _terms(c, i)
        _element(prime, ram_index, form, self)

    def __setattr__(self, name, value):
        raise AttributeError("EisensteinElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, e: int) -> "EisensteinElement":
        return cls.from_scalar(PadicScalar.exact_zero(p), e)

    @classmethod
    def from_scalar(cls, scalar: PadicScalar, e: int) -> "EisensteinElement":
        p = scalar.prime
        if e not in _ALLOWED_E or not isinstance(scalar, PadicScalar):
            return cls(p, e, [scalar] * e)  # raises the constructor's message
        return _element(p, e, _terms(scalar))

    @classmethod
    def from_rational(cls, value, p: int, e: int, prec_p) -> "EisensteinElement":
        return cls.from_scalar(PadicScalar.from_rational(value, p, prec_p), e)

    @classmethod
    def pi_monomial(cls, scalar: PadicScalar, power: int, e: int) -> "EisensteinElement":
        """scalar * pi_e**power, any integer power (reduced via pi**e = -p)."""
        return cls.from_scalar(scalar, e).mul_pi_power(power)

    # -- views ---------------------------------------------------------------

    @property
    def coords(self) -> tuple:
        """The e coordinates over Q_p as normalized PadicScalars, built from the form."""
        p = self.prime
        out = [_scalar(p, 0, INFINITY, INFINITY)] * self.ram_index
        for i, u, f, r in self.form:
            out[i] = _scalar(p, u, f if u else INFINITY, f + r)
        return tuple(out)

    def pi_precision(self):
        """Absolute precision in pi_e-digits: min over i of e*N_i + i."""
        return _bounds(self.form, self.ram_index)[1]

    def valuation(self) -> Fraction:
        """Exact valuation in (1/e)Z; raises if not visible at this precision."""
        v = _pi_digits(self.form, self.ram_index)
        return v if v == INFINITY else Fraction(v, self.ram_index)

    def valuation_floor(self):
        """Provable lower bound on the valuation (never raises)."""
        v = _bounds(self.form, self.ram_index)[0]
        return v if v == INFINITY else Fraction(v, self.ram_index)

    def is_zero_to_precision(self) -> bool:
        return not any(u for _, u, _, _ in self.form)

    @property
    def is_exact_zero(self) -> bool:
        return not self.form

    def as_padic_scalar(self) -> PadicScalar:
        """Coordinate 0, provided every other coordinate vanishes to precision."""
        coords = self.coords
        for i, c in enumerate(coords[1:], start=1):
            if c.unit:
                raise CosetViolationError(f"pi_e**{i} component {c!r} does not cancel")
        return coords[0]

    def truncate_pi(self, pi_digits: int) -> "EisensteinElement":
        """Reduce to absolute precision pi_e**pi_digits."""
        p, e = self.prime, self.ram_index
        return _element(p, e, _truncate(p, e, self.form, pi_digits))

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
        p, e = self.prime, self.ram_index
        return _element(p, e, _product(p, e, _ONE, self.form + other.form))

    __radd__ = __add__

    def __neg__(self):
        return _element(self.prime, self.ram_index, [(i, -u, f, r) for i, u, f, r in self.form])

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
            return EisensteinElement(self.prime, self.ram_index, [c * other for c in self.coords])
        self._check(other)
        p, e = self.prime, self.ram_index
        return _element(p, e, _product(p, e, self.form, other.form))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, EisensteinElement):
            if not isinstance(other, (int, PadicScalar, Fraction)):
                return NotImplemented
            return EisensteinElement(self.prime, self.ram_index, [c / other for c in self.coords])
        if self.is_exact_zero:
            if other.is_exact_zero:
                raise ZeroDivisionError("0/0")
            return self
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        p, e = self.prime, self.ram_index
        return _element(p, e, _power(p, e, self.form, exponent))

    def mul_pi_power(self, power: int) -> "EisensteinElement":
        """Multiply by pi_e**power exactly (any sign)."""
        e, form = self.ram_index, []
        for i, u, f, r in self.form:  # distinct i land on distinct indices
            shift, index = divmod(i + power, e)
            form.append((index, -u if shift % 2 else u, f + shift, r))
        return _element(self.prime, e, form)

    def inverse(self) -> "EisensteinElement":
        """Inverse via the leading monomial and a geometric tail.

        self = lead * pi**lead_i * (1 - w), v(w) > 0.  The tail sum(w**j) is
        the doubling product (1 + w)(1 + w**2)(1 + w**4)... on the integer
        form, until the powers left out reach P = w.pi_precision(); it is
        truncated to pi**P, all that w is known to, before it is multiplied
        by 1/(lead * pi**lead_i).  Requires the valuation to be visible at
        the carried precision.
        """
        p, e = self.prime, self.ram_index
        form = self.form
        v = _pi_digits(form, e)  # raises PrecisionError when ambiguous
        if v == INFINITY:
            raise ZeroDivisionError("inverting zero")
        lead_i = v % e  # v(c[i]) + i/e == v/e picks i = v mod e
        _, u, f, r = next(t for t in form if t[0] == lead_i)
        if r == INFINITY and abs(u) != 1:  # as PadicScalar.inverse
            raise PrecisionError(
                f"1/{abs(u)} has no exact finite expansion; reduce precision first")
        # 1/(u * p**f * pi**lead_i) = u**-1 * p**-f * pi**-lead_i, one fold when lead_i > 0.
        u = u if r == INFINITY else pow(u, -1, p**r)
        inv_lead = [(-lead_i % e, -u if lead_i else u, -f - (lead_i > 0), r)]
        x = _product(p, e, form, inv_lead)
        # w = 1 - x, the 1 known to x's least coordinate precision, as `1 - x` embeds it.
        N = min((f + r for _, _, f, r in x), default=INFINITY)
        embedded = (0, 1, 0, N) if N > 0 else (0, 0, N, 0)
        w = _product(p, e, _ONE, [embedded] + [(i, -u, f, r) for i, u, f, r in x])
        floor, prec = _bounds(w, e)
        if prec == INFINITY:
            if not w:
                return _element(p, e, inv_lead)  # exact monomial: no tail to sum
            raise PrecisionError("cannot invert an exact non-monomial")
        if floor <= 0:
            raise PrecisionError("tail not contracting; precision too low")
        # (1 + w)(1 + w**2)...: `[*_ONE, *square]` is 1 + square, not yet normalized.
        tail, square, left_out = _product(p, e, _ONE, [*_ONE, *w]), w, 2 * floor
        while left_out < prec:  # left_out: pi-digit floor of the first power left out
            square = _product(p, e, square, square)
            tail = _product(p, e, tail, [*_ONE, *square])
            left_out *= 2
        return _element(p, e, _product(p, e, _truncate(p, e, tail, prec), inv_lead))

    # -- comparison ----------------------------------------------------------

    def is_congruent(self, other, pi_digits=None) -> bool:
        diff = self - other if isinstance(other, EisensteinElement) else self - _embed(other, self)
        if pi_digits is None:
            return diff.is_zero_to_precision()
        return _bounds(diff.form, self.ram_index)[0] >= pi_digits

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
            if c.is_exact_zero:
                continue
            inner = repr(c)
            if " " in inner:
                inner = f"({inner})"
            bits.append(inner if i == 0 else f"{inner}*pi^{i}" if i > 1 else f"{inner}*pi")
        return " + ".join(bits) or "0"  # a precision zero shows its coordinates


def _terms(x, i: int = 0):
    """The integer form of x: an element's `form`; a PadicScalar is one entry,
    at index i, or none when it is exactly 0."""
    if isinstance(x, EisensteinElement):
        return x.form
    if x.unit:
        return ((i, x.unit, x.valuation, x.abs_precision - x.valuation),)
    return () if x.abs_precision == INFINITY else ((i, 0, x.abs_precision, 0),)


def _pi_digits(form, e: int):
    """e * v of an integer form in pi-digits, INFINITY for exactly 0; raises
    PrecisionError when the valuation is not visible at the carried precision."""
    best = min((e * f + i for i, u, f, _ in form if u), default=INFINITY)
    floor = min((e * f + i for i, u, f, _ in form if not u), default=INFINITY)
    if best == INFINITY != floor:
        raise PrecisionError(
            f"element is zero to precision; valuation only known >= {Fraction(floor, e)}")
    if floor < best:
        raise PrecisionError(f"valuation ambiguous: visible term at {Fraction(best, e)}, "
                             f"precision floor {Fraction(floor, e)}")
    return best


def _bounds(form, e: int):
    """(floor, precision) of an integer form in pi-digits: e*v >= min of e*f + i,
    and it is known to pi**(min of e*(f + r) + i); INFINITY when there is none."""
    return (min((e * f + i for i, _, f, _ in form), default=INFINITY),
            min((e * (f + r) + i for i, _, f, r in form if r != INFINITY), default=INFINITY))


def _truncate(p: int, e: int, form, pi_digits: int, fill: bool = True):
    """The integer form cut to absolute precision pi**pi_digits: coordinate i,
    which carries pi-precision e*N + i, to p**ceil((pi_digits - i) / e).
    Indices absent from the form (exact zeros) become zeros known to that
    precision, or stay exact when not `fill`."""
    out = []
    for i, u, f, r in form:
        need = -((i - pi_digits) // e)
        if need < f + r:
            u, f, r = (u % p ** (need - f), f, need - f) if u and f < need else (0, need, 0)
        out.append((i, u, f, r))
    if fill:
        present = {t[0] for t in form}
        out += [(i, 0, -((i - pi_digits) // e), 0) for i in range(e) if i not in present]
    return out


def _power(p: int, e: int, form, exponent: int):
    """The integer form of x**exponent, exponent >= 0: a monomial's power in
    closed form, any other by square-and-multiply on `_product`."""
    if exponent and len(form) == 1:
        (i, u, f, r), = form
        folds, index = divmod(i * exponent, e)
        u = pow(u, exponent) if r == INFINITY else pow(u, exponent, p**r)
        return [(index, -u if folds % 2 else u, exponent * f + folds, r)]
    return power_by_squaring(form, exponent, _ONE, partial(_product, p, e))


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
    for k, N in enumerate(precision):  # an exact 0 needs no normal form
        u, f = _normal(p, total[k], base, N) if total[k] or N != INFINITY else (0, N)
        if u:
            out.append((k, u, f, N - f))
        elif N != INFINITY:
            out.append((k, 0, N, 0))
    return out


def _element(p: int, e: int, form, x=None) -> EisensteinElement:
    """The element of an integer form that keeps the invariants, in x or a new
    element, unchecked: results of arithmetic on checked operands come through here."""
    x = object.__new__(EisensteinElement) if x is None else x
    object.__setattr__(x, "prime", p)
    object.__setattr__(x, "ram_index", e)
    object.__setattr__(x, "form", tuple(form))
    return x


def _embed(value, like: EisensteinElement) -> EisensteinElement:
    if isinstance(value, PadicScalar):
        return EisensteinElement.from_scalar(value, like.ram_index)
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot embed {type(value).__name__} in L")
    target = min((f + r for _, _, f, r in like.form), default=INFINITY)
    return EisensteinElement.from_rational(value, like.prime, like.ram_index, target)
