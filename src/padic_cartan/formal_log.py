"""Coefficients of the formal-group logarithm of y**2 = x**3 + A*x + B.

Two independent routes are provided and cross-checked in the test suite:

* `yasuda_coefficient` evaluates the closed multinomial sum

      log(t) = sum C(2m+3n; m+2n, m, n) A**m B**n t**(4m+6n+1) / (4m+6n+1)

  directly.  When v(A) > 0 or v(B) > 0 the sum is truncated: a term can be
  dropped once m*v(A) + n*v(B) alone pushes it past the target precision
  (multinomial valuations are >= 0), and the survivors are filtered with
  their exact Legendre valuations.  One extra admissible index is kept as a
  guard.  The surviving pairs are listed from valuations before any
  arithmetic.  If none was dropped the sum is evaluated as given, so exact A
  and B give an exact d_r; otherwise A and B are first reduced to
  target + e*v_p(r) + e pi-digits (what the truncated result can use, plus
  a guard of e) before they are raised to powers, as in Caruso-Roe-Vaccon,
  "Tracking p-adic precision" (2014).  This is what makes coefficients of
  index p**7 ~ 10**9 affordable.

* `series_inversion_logarithm` computes the same prefix by inverting the
  Weierstrass parametrization (t = -x/y, w = -1/y, w = t**3 + A t w**2 +
  B w**3) and integrating the invariant differential.  O(n**2) ring
  operations; oracle use only, capped by default.

Both routes work over Q_p (PadicScalar or exact Fraction coefficients) and
over L = Q_p(pi_e) (EisensteinElement coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
# Size threshold below which multinomials go through exact big integers.
_EXACT_MULTINOMIAL_CAP = 10**4
_SERIES_DEFAULT_CAP = 500


@dataclass(frozen=True)
class FormalLogPrefix:
    """A computed prefix d_0..d_n of the formal logarithm."""

    coefficients: tuple

    def d(self, r: int):
        return self.coefficients[r]

    def __len__(self):
        return len(self.coefficients)


def _element_valuation(x):
    if isinstance(x, EisensteinElement):
        return x.valuation()
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

    Iterates in whichever direction makes m*vA + n*vB non-decreasing, so
    stopping one index past the threshold (the guard) cannot skip a term
    that survives.  The flag is True when any admissible pair is left out.
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

    The terms that can reach the target are listed from valuations alone.
    If none is dropped the sum is evaluated as given, and the result is
    exact when A and B are.  Otherwise the result is reduced to the target,
    and when v(A), v(B) >= 0 (as on a normalized model) the powers are taken
    of A and B reduced to target + e*v_p(r) + e pi-digits (p-digits when
    e = 1).  That is sound: the multinomials are integral and only v_p(r) is
    divided out, so every term still carries e digits beyond the target.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"coefficient index must be odd and positive, got {r}")
    e = A.ram_index if isinstance(A, EisensteinElement) else 1
    p = A.prime
    vA = _element_valuation(A)
    vB = _element_valuation(B)
    N = (r - 1) // 2
    vr = vp(r, p)
    # A term C * A^m * B^n / r dies past the target once m*v(A) + n*v(B)
    # >= target/e + v(r), because v(C) >= 0.
    target_abs = Fraction(target_pi_digits, e)
    pairs, dropped = _admissible_pairs(N, vA, vB, target_abs + vr)
    terms = []
    for m, n in pairs:
        parts = (m + 2 * n, m, n)
        v_term = multinomial_valuation(N, parts, p) + m * vA + n * vB - vr
        if v_term >= target_abs:
            dropped = True
        else:
            terms.append((m, n, parts, v_term))
    if dropped and vA >= 0 and vB >= 0:
        working = target_pi_digits + e * vr + e
        A, B = _reduce_for_powers(A, working), _reduce_for_powers(B, working)
    total = _zero_like(A)
    for m, n, parts, v_term in terms:
        if N <= _EXACT_MULTINOMIAL_CAP:
            coeff = multinomial_exact(N, parts)
        else:
            digits = max(1, math.ceil(target_abs - v_term))
            coeff = multinomial_padic(N, parts, p, digits)
        total = total + coeff * (A**m) * (B**n) / r
    if dropped:
        if isinstance(total, EisensteinElement):
            total = total.truncate_pi(target_pi_digits)
        else:
            total = total.reduce_abs_precision(target_pi_digits)
    return total


def yasuda_coefficient_exact(A, B, r: int) -> Fraction:
    """Exact rational d_r for a model over Q; oracle path, no truncation."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"coefficient index must be odd and positive, got {r}")
    A, B = Fraction(A), Fraction(B)
    N = (r - 1) // 2
    if N > _EXACT_MULTINOMIAL_CAP:
        raise ValueError(f"index {r} too large for the exact path")
    total = Fraction(0)
    for m in range((2 * N) % 3, N // 2 + 1, 3):
        n = (N - 2 * m) // 3
        if (m and A == 0) or (n and B == 0):
            continue  # A**m or B**n is exactly 0: skip the factorial-sized multinomial
        total += multinomial_exact(N, (m + 2 * n, m, n)) * A**m * B**n
    return total / r


# -- series-inversion oracle -------------------------------------------------


def _is_ring_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_exact_zero


def _ser_mul(f, g, cut: int, zero):
    out = [zero] * (cut + 1)
    for i, fi in enumerate(f):
        if i > cut or _is_ring_zero(fi):
            continue
        for j, gj in enumerate(g):
            if i + j > cut:
                break
            if _is_ring_zero(gj):
                continue
            out[i + j] = out[i + j] + fi * gj
    return out


def _ser_inv(h, cut: int, zero, one):
    """Inverse of a series with constant term exactly 1."""
    out = [zero] * (cut + 1)
    out[0] = one
    for k in range(1, cut + 1):
        acc = zero
        for i in range(1, min(k, len(h) - 1) + 1):
            if _is_ring_zero(h[i]) or _is_ring_zero(out[k - i]):
                continue
            acc = acc + h[i] * out[k - i]
        out[k] = -acc
    return out


def series_inversion_logarithm(A, B, n_terms: int, force: bool = False) -> FormalLogPrefix:
    """Formal-log prefix d_0..d_{n_terms} via parameter inversion.

    Exact over Q (int/Fraction inputs); bounded precision over Q_p or L.
    Independent of the multinomial route, hence usable as an oracle against
    it.  Cost is O(n_terms**2) ring multiplications, so the index is capped
    at 500 unless force=True.
    """
    if n_terms < 1:
        raise ValueError("need at least one coefficient")
    if n_terms > _SERIES_DEFAULT_CAP and not force:
        raise ValueError(
            f"n_terms={n_terms} beyond the oracle cap {_SERIES_DEFAULT_CAP}; "
            "pass force=True if you mean it"
        )
    if isinstance(A, (int, Fraction)) or isinstance(B, (int, Fraction)):
        A, B = Fraction(A), Fraction(B)
        zero, one = Fraction(0), Fraction(1)
    elif isinstance(A, EisensteinElement):
        zero = EisensteinElement.zero(A.prime, A.ram_index)
        one = EisensteinElement.from_rational(1, A.prime, A.ram_index, INFINITY)
    else:
        zero = PadicScalar.exact_zero(A.prime)
        one = PadicScalar.from_rational(1, A.prime, INFINITY)

    cut = n_terms  # work with series truncated at t**cut
    # z solves z = 1 + A t^4 z^2 + B t^6 z^3 (z = w / t^3 for the inverted
    # parameter w = -1/y); Newton iteration doubles the valid order.
    z = [one]
    valid = 4
    while True:
        reach = min(max(2 * valid, 8), cut + 1)
        width = reach - 1
        z = z + [zero] * (width + 1 - len(z))
        z2 = _ser_mul(z, z, width, zero)
        z3 = _ser_mul(z2, z, width, zero)
        # F = z - 1 - A t^4 z^2 - B t^6 z^3
        F = list(z)
        F[0] = F[0] - one
        for i in range(4, width + 1):
            F[i] = F[i] - A * z2[i - 4]
        for i in range(6, width + 1):
            F[i] = F[i] - B * z3[i - 6]
        # F' = 1 - 2 A t^4 z - 3 B t^6 z^2
        Fp = [zero] * (width + 1)
        Fp[0] = one
        for i in range(4, width + 1):
            Fp[i] = Fp[i] - 2 * A * z[i - 4]
        for i in range(6, width + 1):
            Fp[i] = Fp[i] - 3 * B * z2[i - 6]
        correction = _ser_mul(F, _ser_inv(Fp, width, zero, one), width, zero)
        z = [zi - ci for zi, ci in zip(z, correction)]
        if valid >= cut + 1:
            break
        valid = reach
    u = _ser_inv(z, cut, zero, one)  # u = 1/z, x = t^-2 u, y = -t^-3 u
    # g = log' = x'/(2y) = -(1/2) * (sum (i-2) u_i t^i) * z
    xw = [u_i * (i - 2) for i, u_i in enumerate(u)]
    g = _ser_mul(xw, z, cut - 1, zero)
    coeffs = [zero]
    for r in range(1, n_terms + 1):
        coeffs.append(-g[r - 1] / (2 * r))
    return FormalLogPrefix(tuple(coeffs))


def hasse_invariant(A, B, p: int | None = None):
    """Coefficient of x**(p-1) in (x**3 + A x + B)**((p-1)/2).

    Returns the same element type as the inputs (Fraction over Q).  Equals
    p * d_p, which the test suite checks on both routes.
    """
    if p is None:
        p = A.prime
    M = (p - 1) // 2
    rational = isinstance(A, (int, Fraction))
    if rational:
        A, B = Fraction(A), Fraction(B)
        total = Fraction(0)
    else:
        if getattr(A, "prime") != p:
            raise ValueError("p does not match the coefficient field")
        total = _zero_like(A)
    for i in range((p + 2) // 4, (p - 1) // 3 + 1):
        j = p - 1 - 3 * i
        k = 2 * i - M
        if j < 0 or k < 0:
            continue
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
