"""Coefficients of the formal-group logarithm of y**2 = x**3 + A*x + B.

Two independent routes are provided and cross-checked in the test suite:

* `yasuda_coefficient` evaluates the closed multinomial sum

      log(t) = sum C(2m+3n; m+2n, m, n) A**m B**n t**(4m+6n+1) / (4m+6n+1)

  directly.  When v(A) > 0 or v(B) > 0 the sum is truncated: a term can be
  dropped once m*v(A) + n*v(B) alone pushes it past the target precision
  (multinomial valuations are >= 0), and the survivors are filtered with
  their exact Legendre valuations.  One extra admissible index is kept as a
  guard.  The pairs are listed, and a sum over a fixed work budget refused,
  before any arithmetic.  If none was dropped, exact A and B give an exact d_r
  up to index 2*10**4 + 1; otherwise each multinomial is taken mod the power
  of p its term needs, and A and B are reduced to target + e*v_p(r) + e
  pi-digits (what the truncated result can use, plus a guard of e) before
  they are raised to powers, as in Caruso-Roe-Vaccon, "Tracking p-adic
  precision" (2014).  This is what makes coefficients of index p**7 ~ 10**9
  affordable.  Valuations are kept as integer pi-digits (e*v), and the kept
  terms are summed before one division by r: a shift by v_p(r) and a unit
  inverse per coordinate.

* `series_inversion_logarithm` computes the same prefix by inverting the
  Weierstrass parametrization (t = -x/y, w = -1/y = t**3 z, z a series in
  u = t**2): z_s = [s = 0] + A (z**2)_(s-2) + B (z**3)_(s-3), and as
  1/z = 1 - A u**2 z - B u**3 z**2, log' = 1 + u z'/z (z' = dz/du) has the
  u**s coefficient c_s = (3A(s+2) (z**2)_(s-2) + 2B(2s+3) (z**3)_(s-3)) / 6
  = (2s+1) d_(2s+1) for s >= 1.  Half a convolution plus one per step,
  O(n**2) ring operations; oracle use only, capped by default.

Both routes work over Q_p (PadicScalar or exact Fraction coefficients) and
over L = Q_p(pi_e) (EisensteinElement coefficients).  Over Q both run on
integers: t -> lam*t maps (A, B) to (lam**4 A, lam**6 B), integral for any
lam with den A | lam**4 and den B | lam**6, and d_r to lam**(r-1) d_r.  Each
route takes lam = lcm(den A, den B) itself and divides once per d_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .eisenstein import EisensteinElement
from .errors import NormalizationError, PrecisionError
from .padic import (
    INFINITY,
    PadicScalar,
    multinomial_exact,
    multinomial_padic,
    multinomial_valuation,
    vp,
)

# Largest (r-1)/2 for which the untruncated sum is evaluated term by term.
_GENERIC_CAP = 3000
# Largest (r-1)/2 at which a sum that drops no term takes exact multinomials.
_EXACT_MULTINOMIAL_CAP = 10**4
# Largest up-front work estimate of one Yasuda sum that is run; past it, refuse.
_WORK_BUDGET = 10**8
_SERIES_DEFAULT_CAP = 500


@dataclass(frozen=True)
class FormalLogPrefix:
    """A computed prefix d_0..d_n of the formal logarithm."""

    coefficients: tuple

    def d(self, r: int):
        return self.coefficients[r]

    def __len__(self):
        return len(self.coefficients)


def _pi_valuation(x):
    """v(x) in pi-digits, e*v(x): an int, or INFINITY."""
    if isinstance(x, EisensteinElement):
        v = x.valuation()
        return v if v == INFINITY else x.ram_index * v.numerator // v.denominator
    if isinstance(x, PadicScalar):
        if x.is_precision_zero:
            raise PrecisionError("coefficient is only known to be O(p^N)")
        return x.valuation
    raise TypeError(f"unsupported coefficient type {type(x).__name__}")


def _zero_like(x):
    if isinstance(x, EisensteinElement):
        return EisensteinElement.zero(x.prime, x.ram_index)
    return PadicScalar.exact_zero(x.prime)


def _admissible_pairs(N: int, vA, vB, threshold):
    """The (m, n) with 2m + 3n = N whose term may survive, and a dropped flag.

    vA, vB and the threshold are integers (pi-digits) or INFINITY.  Iterates
    in whichever direction makes m*vA + n*vB non-decreasing, so stopping one
    index past the threshold (the guard) cannot skip a term that survives.
    The flag is True when any admissible pair is left out.
    """
    if vA == INFINITY and vB == INFINITY:
        return [], False  # both coefficients exactly zero: empty sum
    if vA == INFINITY:
        return ([(0, N // 3)] if N % 3 == 0 else []), False
    if vB == INFINITY:
        return ([(N // 2, 0)] if N % 2 == 0 else []), False
    if vA == 0 and vB == 0:
        # Unit coefficients: nothing can be dropped.
        if N > _GENERIC_CAP:
            raise PrecisionError(
                f"index {2 * N + 1} needs the full sum over units; cap is {_GENERIC_CAP}"
            )
        return [(m, (N - 2 * m) // 3) for m in range((2 * N) % 3, N // 2 + 1, 3)], False
    if 3 * vA >= 2 * vB:
        pairs = (((m, (N - 2 * m) // 3)) for m in range((2 * N) % 3, N // 2 + 1, 3))
    else:
        pairs = ((((N - 3 * n) // 2, n)) for n in range(N % 2, N // 3 + 1, 2))
    out = []
    guard_left = 1
    for m, n in pairs:
        if m * vA + n * vB > threshold:
            if not guard_left:
                return out, True
            guard_left -= 1
        out.append((m, n))
    return out, False


def _reduce_for_powers(x, pi_digits):
    """x to absolute precision pi**pi_digits, exact-zero coordinates kept exact.

    Those are known to any precision, and EisensteinElement.__mul__ skips
    them, so a pi-monomial keeps costing one coordinate product per step.
    """
    if not isinstance(x, EisensteinElement):
        return x.reduce_abs_precision(pi_digits)
    cut = x.truncate_pi(pi_digits).coords
    return EisensteinElement(
        x.prime,
        x.ram_index,
        [c if c.is_exact_zero else d for c, d in zip(x.coords, cut)],
    )


def yasuda_coefficient(A, B, r: int, target_pi_digits: int):
    """d_r of the formal logarithm, certified mod pi_e**target_pi_digits.

    A and B are both PadicScalar (then pi = p and the target is in p-digits)
    or both EisensteinElement over the same field.  r must be odd: even
    indices of the odd series vanish identically.

    The terms that can reach the target are listed from valuations alone;
    past _WORK_BUDGET their estimated work raises PrecisionError there.  If
    none is dropped and (r-1)/2 <= _EXACT_MULTINOMIAL_CAP the sum takes exact
    multinomials, so it is exact when A and B are; every other sum takes each
    multinomial mod the power of p its term needs for the target.  When terms
    are dropped the result is reduced to the target, and when v(A), v(B) >= 0
    (as on a normalized model) the powers are taken of A and B reduced to
    target + e*v_p(r) + e pi-digits (p-digits when e = 1).  That is sound:
    the multinomials are integral and only v_p(r) is divided out, so every
    term still carries e digits beyond the target.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"coefficient index must be odd and positive, got {r}")
    e = A.ram_index if isinstance(A, EisensteinElement) else 1
    p = A.prime
    wA, wB = _pi_valuation(A), _pi_valuation(B)
    N = (r - 1) // 2
    vr = vp(r, p)
    # In pi-digits, a term C * A^m * B^n / r dies past the target once
    # m*wA + n*wB >= target + e*v_p(r), because v(C) >= 0.
    pairs, dropped = _admissible_pairs(N, wA, wB, target_pi_digits + e * vr)
    working = target_pi_digits + e * vr + e
    # Per pair: factorial units over log_p N digits of up to p blocks, and powers.
    cost = len(pairs) * (-(-working // e)) ** 2 * p * math.log(N + 1, p)
    if cost > _WORK_BUDGET:
        raise PrecisionError(
            f"d_r at r ~ {p}^{math.log(r, p):.0f} to pi^{target_pi_digits} needs "
            f"~{cost:.2g} digit operations, over the budget {_WORK_BUDGET:.0e}")
    terms = []
    for m, n in pairs:
        parts = (m + 2 * n, m, n)
        # A factor to the power 0 is 1, even when it is exactly zero (0 * inf).
        w_power = (m * wA if m else 0) + (n * wB if n else 0)
        w_term = e * (multinomial_valuation(N, parts, p) - vr) + w_power
        if w_term >= target_pi_digits:
            dropped = True
        else:
            terms.append((m, n, parts, w_term))
    if dropped and wA >= 0 and wB >= 0:
        A, B = _reduce_for_powers(A, working), _reduce_for_powers(B, working)
    total = _zero_like(A)
    for m, n, parts, w_term in terms:
        if not dropped and N <= _EXACT_MULTINOMIAL_CAP:
            coeff = multinomial_exact(N, parts)
        else:
            # The p-digits a kept term needs, ceil((target - w_term) / e) >= 1.
            coeff = multinomial_padic(N, parts, p, -((w_term - target_pi_digits) // e))
        total = total + coeff * (A**m) * (B**n)
    total = total / r
    if dropped:
        if isinstance(total, EisensteinElement):
            total = total.truncate_pi(target_pi_digits)
        else:
            total = total.reduce_abs_precision(target_pi_digits)
    return total


def yasuda_coefficient_exact(A, B, r: int) -> Fraction:
    """Exact rational d_r for a model over Q; oracle path, no truncation.

    Sums on integers a = lam**4 A, b = lam**6 B, walking the pairs of
    2m + 3n = N by increasing m: one multinomial gives the first term, and
    C(N; m+2n-1, m+3, n-2) = C(N; m+2n, m, n) (m+2n) n(n-1) / ((m+1)(m+2)(m+3))
    the next, as term * (m+2n) n(n-1) a**3 // ((m+1)(m+2)(m+3) b**2): exact,
    as the quotient is the next term, an integer.  a = 0 or b = 0 leaves one
    pair, (0, N/3) or (N/2, 0), taken before the walk.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"coefficient index must be odd and positive, got {r}")
    A, B = Fraction(A), Fraction(B)
    N = (r - 1) // 2
    if N > _EXACT_MULTINOMIAL_CAP:
        raise ValueError(f"index {r} too large for the exact path")
    # Each term has 4m + 6n = r - 1: sum over integers a, b, divide by lam**(r-1).
    lam = math.lcm(A.denominator, B.denominator)
    a, b = int(A * lam**4), int(B * lam**6)
    # The first pair by increasing m; b = 0 leaves only n = 0, a = 0 only m = 0.
    m = N // 2 if b == 0 else (2 * N) % 3 if a else 0
    n = (N - 2 * m) // 3
    if n < 0 or 2 * m + 3 * n != N:
        return Fraction(0)
    total = term = multinomial_exact(N, (m + 2 * n, m, n)) * a**m * b**n
    a3, b2 = a**3, b**2
    while a and n >= 2:
        term = term * ((m + 2 * n) * n * (n - 1)) * a3 // ((m + 1) * (m + 2) * (m + 3) * b2)
        m, n = m + 3, n - 2
        total += term
    return Fraction(total, r * lam ** (r - 1))


# -- series-inversion oracle -------------------------------------------------


def series_inversion_logarithm(A, B, n_terms: int, force: bool = False) -> FormalLogPrefix:
    """Formal-log prefix d_0..d_{n_terms} via parameter inversion.

    With w = -1/y = t**3 * z and u = t^2, z = 1 + A u^2 z^2 + B u^3 z^3, so
    z_s = [s = 0] + A (z^2)_(s-2) + B (z^3)_(s-3).  From x = t^-2 / z and
    y = -t^-3 / z, dx / (2y) = (1 + u z'/z) dt with z' = dz/du.  Dividing by z,
    1/z = 1 - A u^2 z - B u^3 z^2; as z z' = (z^2)'/2 and z^2 z' = (z^3)'/3,
    u z'/z = u z' - (A/2) u^3 (z^2)' - (B/3) u^4 (z^3)'.  With z_s put in, its
    u^s coefficient (s >= 1) is c_s = (2s+1) d_(2s+1) =
    (3A(s+2) (z^2)_(s-2) + 2B(2s+3) (z^3)_(s-3)) / 6: no convolution is left
    for the log, and a step costs half a convolution for (z^2)_s (by symmetry)
    plus one for (z^3)_s.  The loop keeps 6 c_s and divides once per d_r; 6
    is a unit for p >= 5, and for p = 3 PadicScalar division lowers the
    absolute precision by the lost digit.

    Exact over Q (int/Fraction inputs): the loop runs on the integral model
    (lam**4 A, lam**6 B), lam = lcm(den A, den B).  t -> lam*t scales z_s and
    c_s by lam**(2s), which makes z_s and 6 c_s integers (z_0 = 1, integer
    recurrences), so d_(2s+1) is one division by 6 (2s+1) lam**(2s).  Bounded
    precision over Q_p or L, on A and B as they are.  Independent of the
    multinomial route, hence an oracle for it.  O(n_terms**2) ring
    multiplications: capped at 500 unless force=True.
    """
    if n_terms < 1:
        raise ValueError("need at least one coefficient")
    if n_terms > _SERIES_DEFAULT_CAP and not force:
        raise ValueError(
            f"n_terms={n_terms} beyond the oracle cap {_SERIES_DEFAULT_CAP}; "
            "pass force=True if you mean it"
        )
    lam = 1
    if isinstance(A, (int, Fraction)) or isinstance(B, (int, Fraction)):
        A, B = Fraction(A), Fraction(B)
        lam = math.lcm(A.denominator, B.denominator)
        A, B, zero, one = int(A * lam**4), int(B * lam**6), 0, 1
    elif isinstance(A, EisensteinElement):
        zero = EisensteinElement.zero(A.prime, A.ram_index)
        one = EisensteinElement.from_rational(1, A.prime, A.ram_index, INFINITY)
    else:
        zero = PadicScalar.exact_zero(A.prime)
        one = PadicScalar.from_rational(1, A.prime, INFINITY)

    # Step s appends z_s, 6 c_s, (z^2)_s and (z^3)_s in turn; each reads only
    # entries already appended.
    z, c6, z2, z3 = [], [], [], []
    for s in range((n_terms + 1) // 2):
        a_s = A * z2[s - 2] if s >= 2 else zero
        b_s = B * z3[s - 3] if s >= 3 else zero
        z.append(a_s + b_s if s else one)
        c6.append(3 * (s + 2) * a_s + 2 * (2 * s + 3) * b_s)
        h = s // 2
        half = sum(map(mul, z[h + 1:], reversed(z[:s - h])), zero)  # i > s/2
        z2.append(2 * half + (zero if s % 2 else z[h] * z[h]))
        z3.append(sum(map(mul, z, reversed(z2)), zero))
    if isinstance(one, int):  # over Q: from the integral model back to Fractions
        c6, zero, one = [Fraction(c) for c in c6], Fraction(0), Fraction(1)
    d = [one] + [c6[s] / (6 * (2 * s + 1) * lam ** (2 * s)) for s in range(1, len(c6))]
    return FormalLogPrefix(tuple(d[r // 2] if r % 2 else zero for r in range(n_terms + 1)))


def hasse_invariant(A, B, p: int | None = None):
    """Coefficient of x**(p-1) in (x**3 + A x + B)**((p-1)/2).

    Returns the same element type as the inputs (Fraction over Q).  Equals
    p * d_p, which the test suite checks on both routes.
    """
    if p is None:
        p = A.prime
    M = (p - 1) // 2
    if isinstance(A, (int, Fraction)):
        A, B, total = Fraction(A), Fraction(B), Fraction(0)
    elif A.prime != p:
        raise ValueError("p does not match the coefficient field")
    else:
        total = _zero_like(A)
    # 3i <= p - 1 and 2i >= M, so both exponents below are >= 0.
    for i in range((p + 2) // 4, (p - 1) // 3 + 1):
        j = p - 1 - 3 * i
        k = 2 * i - M
        coeff = math.comb(M, i) * math.comb(M - i, j)
        total = total + coeff * (A**j) * (B**k)
    return total


def odd_coefficient_valuation(a_l: EisensteinElement, b_l: EisensteinElement, k: int):
    """Predicted v(d_{p^(2k+1)}) for a normalized good model over L.

    -(k+1) + v(A_L) for e in {3, 6}; -(k+1) + v(B_L) for e = 4; INFINITY in
    the CM cases (the coefficient vanishes identically).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    e = a_l.ram_index
    if e in (3, 6):
        if b_l.is_exact_zero or b_l.valuation() != 0:
            raise NormalizationError("model not normalized: v(B_L) must be 0")
        v = a_l.valuation()
    elif e == 4:
        if a_l.is_exact_zero or a_l.valuation() != 0:
            raise NormalizationError("model not normalized: v(A_L) must be 0")
        v = b_l.valuation()
    else:
        raise ValueError(f"unsupported ramification index {e}")
    if v == INFINITY:
        return INFINITY
    return Fraction(-(k + 1)) + v
