"""Bounded-precision p-adic scalars, the arithmetic kernel of Q_p and L, and
exact p-adic combinatorics.

A :class:`PadicScalar` is ``unit * p**valuation + O(p**abs_precision)``.  Exact
zero (valuation ``+inf``, infinite precision) is distinct from a precision zero
``O(p**N)``, whose valuation is only known to be ``>= N``.

Q_p and L = Q_p(pi_e), pi_e**e = -p, share one integer form and one kernel.
x = sum(c[i] * pi_e**i) has an entry (i, unit, floor f, relative precision r)
per coordinate not exactly 0, c[i] = unit * p**f + O(p**(f + r)).  Each index
appears at most once; p divides no nonzero unit; a zero known to p**N is
(i, 0, N, 0), an exact zero is absent; a finite unit is defined only mod p**r
(a negation leaves -u).  Both types store (prime, form): a PadicScalar is the
form of e = 1, one entry at index 0 or none, and its `unit`, `valuation` and
`abs_precision` are views of that entry, the unit reduced mod p**r on read.
The kernel `_product` keeps the rules of Caruso, Roe and Vaccon, "Tracking
p-adic precision" (2014): a_i and b_j give the term a_i.unit * b_j.unit *
p**(f_a + f_b), known mod p**min(N_a + f_b, N_b + f_a), at index i + j, folded
from index e on through pi**e = -p (floor + 1, sign flipped).  Each coordinate
sums over its own least floor (its nonzero terms over p**base, a lower floor
rebasing the sum so far) and is normalized once mod the least of their
precisions: every partial sum is exact to it, so this equals adding them one
by one, and `_normal` strips what cancelled, one p at a time.  So a form that
lists an index twice is a sum; times the exact 1 it is normalized.  The
product of two monomials (one entry each, the shape of every Yasuda term and
every PadicScalar `*`) is that one term, normalized, and `_power` takes a
monomial's power in closed form; `_scale` multiplies by an exact num/den and
`_monomial_inverse` inverts one entry.  Every kernel result keeps the
invariants, so `_coordinate` (and `eisenstein._element` for L) wraps it as it
is; `_texts` prints a form of either type, for `repr` and the JSON report.

Both number types share one operator set on the form, the base `_Number`:
`+`, `-`, `*`, `/` by an int, a Fraction or a number and their reflections,
`**`, `==`, `is_congruent` (the floor read by `_bounds` in pi-digits, p-digits
over Q_p), `repr`, `is_exact_zero`, immutability, and `pickle` and `copy`
(`__reduce__` rebuilds a number from its prime, ram_index and form).  Each type
supplies `ram_index` (1 on PadicScalar), `_from_form` (`_coordinate` here,
`eisenstein._element` for L), its message for an operand over another field,
its constructors, its views of the form and `inverse`, whose algorithm and
errors differ by type.  An int or Fraction summand is known to the least
coordinate precision of the other summand.

The combinatorial helpers (`val_factorial`, `multinomial_padic`, ...) never
build the underlying factorials when the arguments are large: valuations come
from Legendre's formula and unit parts mod p**d from one cached block product
per base-p digit, so a multinomial with top index n costs O(d * log(d) * log_p n)
products mod p**d, after a table of O(p * d**2) of them is built at p (again only for more d).

The prime is checked, and the form normalized, where a scalar is built from
caller data: the constructor, which the classmethods use (Miller-Rabin runs
once per prime).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import NamedTuple

from .errors import PrecisionError, UnsupportedPrimeError

INFINITY = float("inf")
_ONE = ((0, 1, 0, INFINITY),)  # the form of the exact 1
_NO_ENTRY = ((0, 0, INFINITY, 0),)  # what a scalar's views read for the exact 0
_UNIT = itemgetter(1)  # an entry's unit
# Trial divisors and Miller-Rabin bases, deterministic below psi_13 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981
_TABLE_PRIMES = 3  # block tables held, one per prime: shallow-batch's corpus cycles through 3
_block_tables = {}  # p -> the table of the most digits built at p, the first built first


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; UnsupportedPrimeError from psi_13 on."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n >= _PSI13:
        raise UnsupportedPrimeError(f"cannot certify {n} as prime")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
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
    n, sign, v = value, 1, 0
    if type(value) is not int:
        n, d = value.as_integer_ratio()  # in lowest terms: p divides one of them at most
        if d % p == 0:
            n, sign = d, -1
    while n % p == 0:  # strip p, then p**2, p**4, ... while they divide, and from p again
        n //= p
        v += 1
        q, k = p * p, 2
        while n % q == 0:
            n //= q
            v += k
            q, k = q * q, 2 * k
    return sign * v


def val_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre: the sum of floor(n / p**i), each term the one before
    divided by p, so every division is by the word p."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    check_odd_prime(p)
    total = 0
    while n:
        n //= p
        total += n
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


def _block_polynomials(p: int, digits: int) -> tuple:
    """Row j < digits: (-(j+1), G_(j,a) for a < p), G_(j,a) = prod_{i <= a*p**j, p ∤ i} (x + i).

    G_(j,a) mod p**digits, highest degree first, cut to degree < ceil(digits/(j+1)), is exact at
    any x divisible by p**(j+1), so rows j < d, read from index d // -(j+1), serve d <= digits.
    Row 0 takes one factor (x + i) at a time, row j > 0 one block F_j(x + t*p**j) (F_1 = G_(0,p-1),
    F_(j+1) = G_(j,p)).  O(p*digits**2) word operations; O(p*digits*log(digits)) coefficients."""
    P, row = p**digits, [(1,)]
    for i in range(1, p):  # row 0, one factor (x + i) at a time
        g = row[-1]
        row.append(tuple([(i * c + b) % P for c, b in zip((*g, 0), (0, *g))][:digits]))
    rows, block = [(-1, tuple(g[::-1] for g in row))], row[-1]
    for j in range(1, digits):
        row, cut = [(1,)], -(-digits // (j + 1))
        for t in range(p):
            shift, f = t * p**j, list(block)
            for lo in range(len(f) - 1):  # f = F_j(x + shift), synthetic division
                for k in range(len(f) - 2, lo - 1, -1):
                    f[k] = (f[k] + shift * f[k + 1]) % P
            g = row[-1]  # G_(j,t+1) = G_(j,t) * f, cut
            row.append(tuple([sum([g[i] * f[k - i] for i in range(max(0, k - len(f) + 1),
                                                                  min(k + 1, len(g)))]) % P
                              for k in range(min(len(g) + len(f) - 1, cut))]))
        block = row.pop()  # F_(j+1) = G_(j,p)
        rows.append((-j - 1, tuple(g[::-1] for g in row)))
    return tuple(rows)


def factorial_unit(n: int, p: int, digits: int) -> int:
    """Unit part n! / p**v_p(n!) modulo P = p**digits, from the digits of n.

    n! = U(n) * p**(n//p) * (n//p)! with U(m) the product of the p-free i <= m, and
    U(m) = (-1)**(m // P) * U(m mod P).  Each base-p digit a_j of m mod P, from the
    top, adds one evaluation G_(j,a_j)(x) of p's table, x the part of m above digit j
    (Granville, "Binomial coefficients modulo prime powers").
    """
    check_odd_prime(p)
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if digits < 1:
        raise ValueError("need at least one digit")
    if len(rows := _block_tables.get(p, ())) < digits:  # grow on demand: D digits serve d <= D
        rows = _block_tables[p] = ()  # the smaller table goes before the larger is built
        rows = _block_tables[p] = _block_polynomials(p, digits)
        if len(_block_tables) > _TABLE_PRIMES:
            del _block_tables[next(iter(_block_tables))]  # the prime first built
    P, out, view = p**digits, 1, rows[digits - 1::-1]  # rows j < digits, from the top
    while n:
        q, m = divmod(n, P)
        out, x, step = (-out if q % 2 else out), 0, P
        for k, row in view:  # k = -(j+1): G_(j,a) below degree ceil(digits/(j+1)) = -(digits//k)
            step //= p
            a, m = divmod(m, step)
            value = 0
            for c in row[a][digits // k:]:  # the terms above it vanish mod P, as p**(j+1) | x
                value = (value * x + c) % P
            out, x = out * value % P, x + a * step
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

    `mul` is the product; its only one in the package is the kernel's,
    `_product`, on integer forms (`_power`).
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


def _normal(p: int, unit: int, valuation, abs_precision):
    """(unit, valuation) of unit * p**valuation + O(p**abs_precision) in normal
    form: p does not divide the unit, reduced mod p**(abs_precision - valuation),
    and a zero, exact or to precision, is (0, INFINITY)."""
    if valuation >= abs_precision:
        return 0, INFINITY  # indistinguishable from zero at this precision
    if abs_precision != INFINITY:
        unit %= p ** int(abs_precision - valuation)
    while unit and unit % p == 0:  # in a kernel result, only what cancelled
        unit, valuation = unit // p, valuation + 1
    return (unit, valuation) if unit else (0, INFINITY)


def _coordinate(p: int, e: int, form, x=None) -> PadicScalar:
    """The PadicScalar of a form of one entry at index 0, or none (the exact 0),
    in x or a new scalar, unchecked: results of arithmetic on checked operands
    come through here.  e is ignored, as the hook shares `_element`'s signature."""
    x, _set = object.__new__(PadicScalar) if x is None else x, object.__setattr__
    _set(x, "prime", p)
    _set(x, "form", tuple(form))
    return x


def _product(p: int, e: int, x, y):
    """The integer form of x * y; an index listed twice in x or y is a sum."""
    if not x or not y:
        return []
    if len(x) == 1 == len(y):  # the one term, as the loop below would sum it
        (i, ua, fa, ra), = x
        (j, ub, fb, rb), = y
        k, t, f = i + j, ua * ub, fa + fb
        if k >= e:  # pi**e = -p
            k, t, f = k - e, -t, f + 1
        try:
            N = f + (ra if ra < rb else rb)
        except OverflowError:  # inf plus a floor past the float range: p divides neither unit
            return [(k, t, f, INFINITY)]
        t, f = _normal(p, t, f, N)
        return [(k, t, f, N - f)] if t else [(k, 0, N, 0)] if N != INFINITY else []
    total, base, precision = [0] * e, [INFINITY] * e, [INFINITY] * e
    for i, ua, fa, ra in x:
        for j, ub, fb, rb in y:
            k, f, t = i + j, fa + fb, ua * ub
            if k >= e:  # pi**e = -p: floor + 1, sign flipped
                k, f, t = k - e, f + 1, -t
            try:
                N = f + (ra if ra < rb else rb)  # min(N_a + f_b, N_b + f_a)
            except OverflowError:  # an exact term's inf plus a floor past the float range
                N = INFINITY
            if N < precision[k]:
                precision[k] = N
            if t:  # summed over p**base[k], the least floor of index k's nonzero terms
                b = base[k]
                if f < b:  # a lower floor rebases the sum so far
                    total[k], base[k], b = total[k] * p ** (b - f) if total[k] else 0, f, f
                total[k] += t if f == b else t * p if f == b + 1 else t * p ** (f - b)
    out = []
    for k, N in enumerate(precision):  # an exact 0 needs no normal form
        u, f = _normal(p, total[k], base[k], N) if total[k] or N != INFINITY else (0, N)
        if u:
            try:
                out.append((k, u, f, N - f))
            except OverflowError:  # an exact coordinate whose floor is past the float range
                out.append((k, u, f, N))
        elif N != INFINITY:
            out.append((k, 0, N, 0))
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


def _scale(p: int, form, num: int, den: int):
    """The integer form of x * num / den, ints num (of either sign) and den > 0:
    their p-parts shift every floor, and each unit takes num's p-free part
    times the inverse of den's mod p**r.  An exact unit raises unless den's
    p-free part divides its product with num's."""
    if num == 0:
        return []
    vn, vd = vp(num, p), vp(den, p)
    num, den, v, out = num // p**vn, den // p**vd, vn - vd, []
    for i, u, f, r in form:
        if r != INFINITY:
            u = u * num * pow(den, -1, p**r) % p**r
        elif (u := u * num) % den:
            raise PrecisionError(f"1/{den} has no exact finite expansion; reduce precision first")
        else:
            u //= den
        out.append((i, u, f + v, r))
    return out


def _monomial_inverse(p: int, e: int, entry):
    """The form of 1/(u * p**f * pi**i) for one entry (i, u, f, r), u != 0:
    u**-1 p**-f pi**-i, one fold when i > 0, to the same relative precision."""
    i, u, f, r = entry
    sign = 1 if u > 0 else -1
    return _scale(p, [(-i % e, -sign if i else sign, -f - (i > 0), r)], 1, sign * u)


def _negated(form):
    return [(i, -u, f, r) for i, u, f, r in form]


def _bounds(form, e: int):
    """(floor, precision) of an integer form in pi-digits: e*v >= min of e*f + i,
    and it is known to pi**(min of e*(f + r) + i); INFINITY when there is none."""
    return (min((e * f + i for i, _, f, _ in form), default=INFINITY),
            min((e * (f + r) + i for i, _, f, r in form if r != INFINITY), default=INFINITY))


def _texts(x):
    """(lifts, abs precisions, repr) of the coordinates of x, a PadicScalar or an
    EisensteinElement, read off its form: each normalized coordinate's lift
    unit * p**valuation as (unit, valuation), (0, 0) for a zero (a finite unit
    reduced mod p**r, as a negation leaves -u), its absolute precision, and the
    sum of the nonzero coordinates' texts times their pi-powers, each text
    parenthesized in L when it carries an O-term.  The lifts stay integers:
    repr prints no power of p."""
    p, e = x.prime, x.ram_index
    lifts, precisions, bits = [(0, 0)] * e, [INFINITY] * e, []
    for i, u, f, r in sorted(x.form):  # in index order
        precisions[i] = N = f + r if r != INFINITY else r
        if not u:
            term = f"O({p}^{N})"
        else:
            if r != INFINITY:
                u %= p**r
            lifts[i] = u, f
            term = f"{u}" if f == 0 else f"{u}*{p}^{f}"
            if r != INFINITY:
                term = f"{term} + O({p}^{N})" if e == 1 else f"({term} + O({p}^{N}))"
        bits.append(term if i == 0 else f"{term}*pi" if i == 1 else f"{term}*pi^{i}")
    return lifts, precisions, " + ".join(bits) or "0"  # a precision zero shows its coordinates


class _Number:
    """The operators that Q_p and L share; see the module docstring."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _operand(self, other, embed=True):
        """other's form as an operand; a number over another field raises.  An int or
        a Fraction is embedded at self's least coordinate precision, or kept if not `embed`."""
        if type(other) is type(self) or isinstance(other, PadicScalar):
            if other.prime != self.prime or other.ram_index not in (1, self.ram_index):
                raise ValueError(self._mixed)
            return other.form
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not embed:
            return other
        N = min((f + r for _, _, f, r in self.form if r != INFINITY), default=INFINITY)
        return PadicScalar.from_rational(other, self.prime, N).form

    def __add__(self, other):
        y = self._operand(other)
        if y is NotImplemented:
            return NotImplemented
        p, e = self.prime, self.ram_index
        return self._from_form(p, e, _product(p, e, _ONE, self.form + y))

    __radd__ = __add__

    def __neg__(self):
        p, e = self.prime, self.ram_index
        return self._from_form(p, e, _negated(self.form))

    def __sub__(self, other):
        y = self._operand(other)
        if y is NotImplemented:
            return NotImplemented
        p, e = self.prime, self.ram_index
        return self._from_form(p, e, _product(p, e, _ONE, [*self.form, *_negated(y)]))

    def __rsub__(self, other):
        y = self._operand(other)
        if y is NotImplemented:
            return NotImplemented
        p, e = self.prime, self.ram_index
        return self._from_form(p, e, _product(p, e, _ONE, [*y, *_negated(self.form)]))

    def __truediv__(self, other):
        """x / y: by a number y (its field checked first), x itself when x is the exact 0
        and y is not zero to its precision, else x * y.inverse(); by an int or a Fraction,
        a scaling."""
        if self._operand(other, embed=False) is NotImplemented:
            return NotImplemented
        if isinstance(other, _Number):
            if self.is_exact_zero and not other.is_zero_to_precision():
                return self
            return self * other.inverse()
        if other == 0:
            raise ZeroDivisionError("division by zero")
        p, e, q = self.prime, self.ram_index, 1 / Fraction(other)
        return self._from_form(p, e, _scale(p, self.form, q.numerator, q.denominator))

    def __rtruediv__(self, other):
        """other / self for an int, a Fraction or a scalar (checked before self is inverted)."""
        if self._operand(other, embed=False) is NotImplemented:
            return NotImplemented
        return self.inverse() * other

    def __mul__(self, other):
        """x * y: the kernel product by a number, a scaling by an int or a Fraction."""
        y = self._operand(other, embed=False)
        if y is NotImplemented:
            return NotImplemented
        p, e = self.prime, self.ram_index
        if isinstance(other, _Number):
            return self._from_form(p, e, _product(p, e, self.form, y))
        return self._from_form(p, e, _scale(p, self.form, other.numerator, other.denominator))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """x**n: for n < 0, the inverse to the power -n."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** -exponent
        p, e = self.prime, self.ram_index
        return self._from_form(p, e, _power(p, e, self.form, exponent))

    @property
    def is_exact_zero(self) -> bool:
        return not self.form

    def is_zero_to_precision(self) -> bool:
        return not any(map(_UNIT, self.form))

    def __eq__(self, other):
        # A scalar meets an element through the element's reflected __eq__.
        try:
            diff = self.__sub__(other)
        except (ValueError, PrecisionError):
            return NotImplemented
        return diff if diff is NotImplemented else diff.is_zero_to_precision()

    def is_congruent(self, other, pi_digits=None) -> bool:
        """True when self - other is zero to its carried precision, or, given
        pi_digits, when its floor reaches pi**pi_digits (p-digits over Q_p)."""
        diff = self - other
        if pi_digits is None:
            return diff.is_zero_to_precision()
        return _bounds(diff.form, diff.ram_index)[0] >= pi_digits

    __hash__ = None

    def __repr__(self):
        return _texts(self)[2]

    def __reduce__(self):
        """pickle and copy rebuild the number from its form, as arithmetic does."""
        return self._from_form, (self.prime, self.ram_index, self.form)


class PadicScalar(_Number):
    """An element of Q_p carried to finite absolute precision."""

    __slots__ = ("prime", "form")
    ram_index = 1
    _mixed = "mixed primes"
    _from_form = staticmethod(_coordinate)

    def __init__(self, prime: int, unit: int, valuation, abs_precision):
        # Normalizing constructor; accepts unnormalized unit/valuation.
        check_odd_prime(prime)
        if abs_precision != INFINITY:
            if abs_precision != int(abs_precision):
                raise ValueError("abs_precision must be an integer or +inf")
            abs_precision = int(abs_precision)
        unit, valuation = _normal(prime, unit, valuation, abs_precision)
        if unit:
            valuation = int(valuation)  # the floor of the form is an int, as repr prints it
            if abs_precision == INFINITY and abs(valuation) > sys.float_info.max:  # inf - floor
                raise ValueError(f"valuation {valuation} puts an exact floor past the float range")
            form = ((0, unit, valuation, abs_precision - valuation),)
        else:
            form = () if abs_precision == INFINITY else ((0, 0, abs_precision, 0),)
        _coordinate(prime, 1, form, self)

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
        value = value if type(value) is int else Fraction(value)
        if value == 0:
            return cls.exact_zero(p)
        v, den = vp(value, p), value.denominator // p ** vp(value.denominator, p)
        if abs_precision == INFINITY and den != 1:
            raise PrecisionError(f"1/{den} has no exact finite expansion; give a finite precision")
        if abs_precision <= v:
            return cls.zero_to_precision(p, abs_precision)
        r = abs_precision if abs_precision == INFINITY else int(abs_precision) - v
        (_, unit, _, _), = _scale(p, ((0, 1, 0, r),), value.numerator, value.denominator)
        return cls(p, unit, v, abs_precision)  # checks p and the precision

    # -- views of the form ----------------------------------------------------

    @property
    def unit(self) -> int:
        """The unit, reduced mod p**r when finite (0 for zeros)."""
        (_, u, _, r), = self.form or _NO_ENTRY
        return u if r == INFINITY else u % self.prime**r

    @property
    def valuation(self):
        (_, u, f, _), = self.form or _NO_ENTRY
        return f if u else INFINITY

    @property
    def abs_precision(self):
        (_, _, f, r), = self.form or _NO_ENTRY
        return f + r if r != INFINITY else r

    @property
    def is_precision_zero(self) -> bool:
        return bool(self.form) and not self.form[0][1]

    def valuation_floor(self):
        """Exact valuation, or the provable lower bound for a precision zero."""
        (_, _, f, _), = self.form or _NO_ENTRY
        return f

    def residue(self) -> int:
        """Leading digit: unit mod p (0 for zeros)."""
        return self.unit % self.prime

    def lift_fraction(self) -> Fraction:
        """The canonical rational representative unit * p**valuation."""
        return self.unit * Fraction(self.prime) ** self.valuation if self.unit else Fraction(0)

    def reduce_abs_precision(self, abs_precision) -> "PadicScalar":
        if abs_precision >= self.abs_precision:
            return self
        return PadicScalar(self.prime, self.unit, self.valuation, abs_precision)

    # -- arithmetic beyond the shared operators ------------------------------

    def inverse(self) -> "PadicScalar":
        entry, = self.form or _NO_ENTRY
        if not entry[1]:
            raise ZeroDivisionError("inverting a (precision) zero")
        return _coordinate(self.prime, 1, _monomial_inverse(self.prime, 1, entry))

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p**k exactly: a shift of the floor."""
        return _coordinate(self.prime, 1, [(i, u, f + k, r) for i, u, f, r in self.form])


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


class NewtonPolygon(NamedTuple):
    """Result of :func:`newton_polygon`; immutable."""

    points: tuple
    vertices: tuple
    segments: tuple
    zero_root_multiplicity: int
    degree: int

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
