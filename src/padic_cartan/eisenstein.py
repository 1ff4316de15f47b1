"""Arithmetic in the Eisenstein extension L = Q_p(pi_e), pi_e**e = -p.

An element stores (prime, ram_index, form), as a PadicScalar stores its
prime and form; the form, its invariants, the kernel that every operation and
the Yasuda sums of `formal_log` run on, the operators shared with PadicScalar
(`+`, `-`, `*`, `**`, `/` by an int, a Fraction or a number with its one rule
for a zero dividend, the reflected ones, `==`, `is_congruent` in pi-digits,
pickling), the floor and precision of a form in pi-digits (`_bounds`) and the
formatter of `repr` and the JSON report (`_texts`) are those of `padic`.
`coords` is a view that wraps each entry as a PadicScalar on demand, for
callers; no operator reads it.
As v(c[i]) is an integer and v(pi_e**i) = i/e, v(x) = min(v(c[i]) + i/e)
whenever it is visible at the carried precision; it, its provable floor and
`pi_precision` (min of e*(f + r) + i) are read off the form in pi-digits.
`inverse` takes its lead entry from them and forms 1 - w, the doubling tail
and its cut (`_truncate`) on the form, or the cut alone when the lead is the
only nonzero unit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CosetViolationError, PrecisionError
from .padic import (
    _ONE, INFINITY, PadicScalar, _bounds, _coordinate, _monomial_inverse, _Number, _product)

_ALLOWED_E = (3, 4, 6)


def _element(p: int, e: int, form, x=None) -> EisensteinElement:
    """The element of an integer form that keeps the invariants, in x or a new
    element, unchecked: results of arithmetic on checked operands come through here."""
    x, _set = object.__new__(EisensteinElement) if x is None else x, object.__setattr__
    _set(x, "prime", p)
    _set(x, "ram_index", e)
    _set(x, "form", tuple(form))
    return x


class EisensteinElement(_Number):
    """An element of L = Q_p(pi_e) with bounded-precision coordinates."""

    __slots__ = ("prime", "ram_index", "form")
    _mixed = "mixed fields"
    _from_form = staticmethod(_element)

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
            form += [(i, u, f, r) for _, u, f, r in c.form]
        _element(prime, ram_index, form, self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, e: int) -> "EisensteinElement":
        return cls.from_scalar(PadicScalar.exact_zero(p), e)

    @classmethod
    def from_scalar(cls, scalar: PadicScalar, e: int) -> "EisensteinElement":
        p = scalar.prime if isinstance(scalar, PadicScalar) else None
        if e not in _ALLOWED_E or p is None:
            return cls(p, e, [scalar] * e)  # raises the constructor's message
        return _element(p, e, scalar.form)

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
        """The e coordinates over Q_p as PadicScalars, each wrapping its entry."""
        p, out = self.prime, [_coordinate(self.prime, 1, ())] * self.ram_index
        for i, u, f, r in self.form:
            out[i] = _coordinate(p, 1, ((0, u, f, r),))
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

    def as_padic_scalar(self) -> PadicScalar:
        """Coordinate 0, provided every other coordinate vanishes to precision."""
        p = self.prime
        visible = [t for t in self.form if t[0] and t[1]]
        if visible:
            i, u, f, r = min(visible)  # the least index, as its message names it
            c = _coordinate(p, 1, ((0, u, f, r),))
            raise CosetViolationError(f"pi_e**{i} component {c!r} does not cancel")
        return _coordinate(p, 1, [t for t in self.form if not t[0]])

    def truncate_pi(self, pi_digits: int) -> "EisensteinElement":
        """Reduce to absolute precision pi_e**pi_digits."""
        p, e = self.prime, self.ram_index
        return _element(p, e, _truncate(p, e, self.form, pi_digits))

    # -- arithmetic beyond the shared operators --------------------------------

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

        When the lead is the only nonzero unit (the rest are zeros known to
        some precision, as on every divisor of the log route), the tail is
        known in closed form.  x = self/lead is 1 plus those zeros, known to
        N p-digits, N the least precision of its entries; so w = 1 - x is a
        zero whose floor equals its precision e*N, no power of w is kept,
        and the tail is the exact 1 cut to pi**(e*N).  N <= 0 is a tail that
        does not contract, and an exact monomial (N infinite) has no tail.
        """
        p, e = self.prime, self.ram_index
        form = self.form
        v = _pi_digits(form, e)  # raises PrecisionError when ambiguous
        if v == INFINITY:
            raise ZeroDivisionError("inverting zero")
        # v(c[i]) + i/e == v/e picks i = v mod e for the lead entry.
        lead = next(t for t in form if t[0] == v % e)
        inv_lead = _monomial_inverse(p, e, lead)
        if not any(u for i, u, _, _ in form if i != lead[0]):  # the monomial's closed form
            (j, _, g, _), = inv_lead
            N = min([lead[3]] + [f + g + (i + j >= e) for i, _, f, _ in form if i != lead[0]])
            if N == INFINITY:
                return _element(p, e, inv_lead)
            if N <= 0:
                raise PrecisionError("tail not contracting; precision too low")
            return _element(p, e, _product(p, e, _truncate(p, e, _ONE, e * N), inv_lead))
        x = _product(p, e, form, inv_lead)
        # w = 1 - x, the 1 known to x's least coordinate precision, as `1 - x` embeds it.
        N = min((f + r for _, _, f, r in x if r != INFINITY), default=INFINITY)
        embedded = (0, 1, 0, N) if N > 0 else (0, 0, N, 0)
        w = _product(p, e, _ONE, [embedded] + [(i, -u, f, r) for i, u, f, r in x])
        floor, prec = _bounds(w, e)
        if prec == INFINITY:
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


def _truncate(p: int, e: int, form, pi_digits: int, fill: bool = True):
    """The integer form cut to absolute precision pi**pi_digits: coordinate i,
    which carries pi-precision e*N + i, to p**ceil((pi_digits - i) / e).
    Indices absent from the form (exact zeros) become zeros known to that
    precision, or stay exact when not `fill`."""
    out = []
    for i, u, f, r in form:
        need = -((i - pi_digits) // e)
        if r == INFINITY or need < f + r:
            u, f, r = (u % p ** (need - f), f, need - f) if u and f < need else (0, need, 0)
        out.append((i, u, f, r))
    if fill:
        present = {t[0] for t in form}
        out += [(i, 0, -((i - pi_digits) // e), 0) for i in range(e) if i not in present]
    return out
