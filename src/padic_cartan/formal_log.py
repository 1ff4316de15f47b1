"""Coefficients of the formal-group logarithm of y**2 = x**3 + A*x + B.

Two independent routes are provided and cross-checked in the test suite:

* `yasuda_coefficient` evaluates the closed multinomial sum

      log(t) = sum C(2m+3n; m+2n, m, n) A**m B**n t**(4m+6n+1) / (4m+6n+1)

  directly.  When v(A) > 0 or v(B) > 0 the sum is truncated: one walk over
  the pairs stops once m*v(A) + n*v(B) alone pushes a term past the target
  precision (multinomial valuations are >= 0), and keeps the terms before it
  by their exact Legendre valuations.  The pairs it visits are priced, and a
  sum over a fixed budget refused, before any arithmetic.  A sum is exact
  only when it keeps one term, drops none and has index at most 2*10**4 + 1:
  that term's multinomial is exact.  Every other sum takes one multinomial,
  and a ratio of factorials steps to each next kept one (Granville, "Binomial
  coefficients modulo prime powers", 1997), mod the power of p the kept terms
  need; A and B are reduced to target + e*v_p(r) + e pi-digits (what the
  result can use, plus a guard of e) before they are raised to powers, as in
  Caruso-Roe-Vaccon, "Tracking p-adic precision" (2014).  This makes
  coefficients of index p**7 ~ 10**9 affordable.  Valuations are integer
  pi-digits (e*v), and the sum runs on the integer form of `padic`: the terms
  are normalized by one `_product`, and 1/r is one `_scale`, after an exact
  entry that the p-free part of r does not divide is cut to the target; one
  element (or scalar) is built, at the end.  The plan, all but the powers of
  A and B, is read off (p, e, (r-1)/2, v_p(r), v(A), v(B), target) and cached
  on this key (128 plans); no result changes.

* `series_inversion_logarithm` computes the same prefix by inverting the
  Weierstrass parametrization (t = -x/y, w = -1/y = t**3 z, z a series in
  u = t**2).  Over Q, z and y = z**2 solve a first-order system, a Riccati
  equation for z and the linear u**2 Q1 y' = 2(A + 9Bu)(z - 1 - A u**2 y) -
  2u P1 y - 2u P0 z for y (both derived in its docstring; z_2k = Cat_k A**k
  when B = 0): O(n) big-integer operations, no convolution.  Over Q_p or L,
  where their divisions by B would lose digits, z comes from the cubic at two
  half-convolutions a step: O(n**2) ring operations, hence a default cap.

Both routes work over Q_p (PadicScalar or exact Fraction coefficients) and
over L = Q_p(pi_e) (EisensteinElement coefficients).  Over Q, where d_r has
weight (r-1)/2, the exact sum and its order-3 recurrence `recurrence_logarithm`
run on integers lam**2 A, lam**3 B, lam = lcm(den A, den B), and the series on
each weight-s coefficient times da**(s//2) db**(s//3); each divides once per d_r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .curve import _Frozen, deforming_coefficient
from .eisenstein import EisensteinElement, _pi_digits, _truncate
from .errors import PrecisionError
from .padic import (
    _ONE, INFINITY, _Number, _power, _product, _scale, multinomial_exact,
    multinomial_padic, multinomial_valuation, vp)

# Largest (r-1)/2 of an exact d_r: a typed sum of one term, or a route over Q.
_EXACT_MULTINOMIAL_CAP = 10**4
# Largest up-front work estimate of one Yasuda sum that is run; past it, refuse.
_WORK_BUDGET = 6 * 10**7
_SERIES_DEFAULT_CAP = 501
_PLAN_CACHE = 128  # plans held by `_sum_plan`, and by `volkov._beta_plan`


class FormalLogPrefix(_Frozen):
    """A computed prefix d_0..d_n of the formal logarithm."""

    _shown = ("coefficients",)

    def __init__(self, coefficients: tuple):
        vars(self)["coefficients"] = coefficients

    def d(self, r: int):
        return self.coefficients[r]

    def __len__(self):
        return len(self.coefficients)


def _charge(p: int, e: int, size, vr: int, target: int, digits: int = 0, cost=0):
    """cost plus a pair of the sum at r = 2N+1, kept to `digits` p-digits or dropped (0);
    PrecisionError past _WORK_BUDGET."""
    # Kept: factorial units over size = log_p(N+1) digits of up to p blocks, and powers, at its
    # digits or A and B's if more (cut to the budget, over it alone); dropped: its valuation.
    working = -(-(target + e * vr + e) // e)
    cost += (min(max(digits, working), _WORK_BUDGET) ** 2 if digits else 1) * p * size
    if cost > _WORK_BUDGET:
        raise PrecisionError(
            f"d_r at r ~ {p}^{max(vr, round(size + math.log(2, p)))} to pi^{target} needs "
            f"more than ~{cost:.2g} digit operations, over the budget {_WORK_BUDGET:.0e}")
    return cost


def _ratio(m: int, n: int):
    """(num, den): C(N; m+2n, m, n) = C(N; m+2n+1, m-3, n+2) * num / den, for m >= 3."""
    return (m + 2 * n + 1) * (n + 1) * (n + 2), m * (m - 1) * (m - 2)


def _price_level(p: int, e: int, k: int, target: int) -> None:
    """`_charge` from p and k alone of d_(p^2k) to pi^target, whose v = -k keeps a term."""
    _charge(p, e, (2 * min(k, _WORK_BUDGET) - math.log(2, p)) * (1 - 1e-12), 2 * k, target, 1)


@lru_cache(maxsize=_PLAN_CACHE)  # <= ~460 MB: a unit plan holds up to ~3.6 MB (N ~ 3*10**5)
def _sum_plan(p: int, e: int, N: int, vr: int, wA, wB, target: int):
    """((m, n, multinomial) per kept term, dropped, exact) of the sum at r = 2N+1.

    wA, wB are v(A), v(B) in pi-digits (ints or INFINITY), vr = v_p(r).  One
    walk over the pairs of 2m + 3n = N, in the direction in which m*wA + n*wB
    does not decrease, keeps each term below the target by its exact
    valuation.  It stops at the first exactly-zero pair (a positive power of
    a zero coefficient; all later ones are zero too), or at the first whose
    power alone reaches target + e*v_p(r), past which every term is dropped
    (v(C) >= 0).  Each pair visited adds its work to an estimate that raises
    PrecisionError past _WORK_BUDGET before any arithmetic; a raise is not
    cached.  A plan is `exact` (at most one term kept, none dropped, N <=
    _EXACT_MULTINOMIAL_CAP) with that term's exact multinomial; any other takes
    one multinomial, at the least m kept, and `_ratio` steps up to the others
    mod p**top, top the most digits a term needs, each cut to its own digits.
    """
    threshold, size = target + e * vr, math.log(N + 1, p)
    if 3 * wA >= 2 * wB:
        pairs = ((m, (N - 2 * m) // 3) for m in range((2 * N) % 3, N // 2 + 1, 3))
    else:
        pairs = (((N - 3 * n) // 2, n) for n in range(N % 2, N // 3 + 1, 2))
    kept, dropped, cost = [], False, 0
    if wA == wB == 0:  # a unit sum visits all ~N/6 pairs, each priced at least as dropped
        _charge(p, e, size, vr, target, 0, (len(range((2 * N) % 3, N // 2 + 1, 3)) - 1) * p * size)
    for m, n in pairs:
        if (m and wA == INFINITY) or (n and wB == INFINITY):
            break
        # A factor to the power 0 is 1, even when it is exactly zero (0 * inf).
        w_power = (m * wA if m else 0) + (n * wB if n else 0)
        if w_power >= threshold:
            dropped = True
            break
        w_term = e * (multinomial_valuation(N, (m + 2 * n, m, n), p) - vr) + w_power
        digits = max(0, -((w_term - target) // e))  # ceil((target - w_term) / e), or 0
        cost = _charge(p, e, size, vr, target, digits, cost)
        if not digits:
            dropped = True
            continue
        kept.append((m, n, digits))
    if not dropped and len(kept) < 2 and N <= _EXACT_MULTINOMIAL_CAP:
        return tuple((m, n, _scale(p, _ONE, multinomial_exact(N, (m + 2 * n, m, n)), 1))
                     for m, n, _ in kept), False, True
    terms = []
    for m, n, digits in sorted(kept):
        if not terms:
            i, x = m, multinomial_padic(N, (m + 2 * n, m, n), p, max(t[2] for t in kept)).form
        for i in range(i + 3, m + 1, 3):  # through the dropped pairs
            x = _scale(p, x, *_ratio(i, (N - 2 * i) // 3))
        terms.append((m, n, ((0, x[0][1] % p**digits, x[0][2], digits),)))
    return tuple(terms), dropped, False


def _check_ring_elements(A, B):
    """TypeError unless A and B are both PadicScalar or EisensteinElement, and
    ValueError("mixed fields") unless both are of one type, prime and e."""
    for x in (A, B):
        if not isinstance(x, _Number):
            raise TypeError(f"unsupported coefficient type {type(x).__name__}")
    if type(A) is not type(B) or A.prime != B.prime or A.ram_index != B.ram_index:
        raise ValueError("mixed fields")


def yasuda_coefficient(A, B, r: int, target_pi_digits: int):
    """d_r of the formal logarithm, certified mod pi_e**target_pi_digits.

    A and B are both PadicScalar over the same p (then pi = p and the target
    is in p-digits) or both EisensteinElement over the same field; any other
    pair raises ValueError("mixed fields").  r must be odd: even indices of
    the odd series vanish identically.

    The terms that reach the target are picked, and their work estimated,
    from valuations alone; past _WORK_BUDGET that raises PrecisionError.  A
    sum is exact (when A and B are) only if it keeps one term, drops none and
    (r-1)/2 <= _EXACT_MULTINOMIAL_CAP; every other sum takes each multinomial
    mod the power of p its term needs (the plan that `_sum_plan` caches), and
    is certified mod pi**target, reduced to it when terms are dropped.  When
    v(A), v(B) >= 0 (as on a normalized model) it takes the powers of A and B
    reduced to target + e*v_p(r) + e pi-digits (p-digits when e = 1), so an
    exact unit is never raised to a power near r; otherwise the bits of the
    powers of exact entries are priced first.  That is sound: the
    multinomials are integral and only v_p(r) is divided out, so every term
    still carries e digits beyond the target.  An exact sum at an r with a
    p-free part r' gives d_r mod pi**target in each coordinate whose exact
    value r' does not divide, and the exact value in every other.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"coefficient index must be odd and positive, got {r}")
    _check_ring_elements(A, B)
    p, e, a, b = A.prime, A.ram_index, A.form, B.form
    wA, wB = _pi_digits(a, e), _pi_digits(b, e)  # v(A), v(B) in pi-digits, or INFINITY
    vr = vp(r, p)
    terms, dropped, exact = _sum_plan(p, e, (r - 1) // 2, vr, wA, wB, target_pi_digits)
    if not exact and wA >= 0 and wB >= 0:
        working = target_pi_digits + e * vr + e
        a, b = _truncate(p, e, a, working, fill=False), _truncate(p, e, b, working, fill=False)
    elif len(terms) > 1:  # a sum of exact entries' powers keeps every bit: priced first
        bits = [max([t[1].bit_length() for t in x if t[3] == INFINITY] + [0]) for x in (a, b)]
        _charge(p, e, math.log((r + 1) // 2, p), vr, target_pi_digits,
                cost=sum(m * bits[0] + n * bits[1] for m, n, _ in terms))
    total = []
    for m, n, term in terms:
        if m:
            term = _product(p, e, term, _power(p, e, a, m))
        if n:
            term = _product(p, e, term, _power(p, e, b, n))
        total += term
    # Sum, then divide by r = p**vr * r1.  An exact entry that r1 does not divide
    # is first cut to pi**target, plus the vr p-digits the division takes back.
    r1, cut = r // p**vr, target_pi_digits + e * vr
    total = [_truncate(p, e, [t], cut, fill=False)[0] if t[3] == INFINITY and t[1] % r1 else t
             for t in _product(p, e, _ONE, total)]
    out = _scale(p, total, 1, r)
    out = _truncate(p, e, out, target_pi_digits) if dropped else out
    return A._from_form(p, e, out)


def yasuda_coefficient_exact(A, B, r: int) -> Fraction:
    """Exact rational d_r for a model over Q; oracle path, no truncation.

    Sums on integers a = lam**2 A, b = lam**3 B, walking the pairs of
    2m + 3n = N by increasing m: one multinomial gives the first term, and
    `_ratio` the next, as term * num * a**3 // (den * b**2): exact, as the
    quotient is the next term, an integer.  a = 0 or b = 0 leaves one pair,
    (0, N/3) or (N/2, 0), taken before the walk.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"coefficient index must be odd and positive, got {r}")
    A, B = Fraction(A), Fraction(B)
    N = (r - 1) // 2
    if N > _EXACT_MULTINOMIAL_CAP:
        raise ValueError(f"index {r} too large for the exact path")
    # Each term has 2m + 3n = N: sum over integers a, b, divide by lam**N.
    lam = math.lcm(A.denominator, B.denominator)
    a, b = int(A * lam**2), int(B * lam**3)
    # The first pair by increasing m; b = 0 leaves only n = 0, a = 0 only m = 0.
    m = N // 2 if b == 0 else (2 * N) % 3 if a else 0
    n = (N - 2 * m) // 3
    if n < 0 or 2 * m + 3 * n != N:
        return Fraction(0)
    total = term = multinomial_exact(N, (m + 2 * n, m, n)) * a**m * b**n
    a3, b2 = a**3, b**2
    while a and n >= 2:
        m, n, (num, den) = m + 3, n - 2, _ratio(m + 3, n - 2)
        term = term * num * a3 // (den * b2)
        total += term
    return Fraction(total, r * lam**N)


def recurrence_logarithm(A, B, n_terms: int) -> FormalLogPrefix:
    """Exact prefix d_0..d_{n_terms} over Q by the recurrence of g_N = (2N+1) d_(2N+1).

    g_N = [u**N] (1 + A u**2 + B u**3)**N (Lagrange inversion) is P-recursive:
    P0 g_N + ... + P3 g_(N-3) = 0, P_i cubic in N and of weight 9 + i in (A, B)
    (found by guessing).  On a = lam**2 A, b = lam**3 B the g_N are integers, so
    each division by P0 must be exact.  B = 0 steps g_N = g_(N-2) a 4(N-1)/N (0 for
    odd N); else g_0..g_2 and g_N where P0 vanishes are yasuda_coefficient_exact's.
    """
    if n_terms < 1:
        raise ValueError("need at least one coefficient")
    if (n_terms - 1) // 2 > _EXACT_MULTINOMIAL_CAP:  # as the per-r route, before any term
        raise ValueError(f"index {(n_terms - 1) | 1} too large for the exact path")
    A, B = Fraction(A), Fraction(B)
    lam = math.lcm(A.denominator, B.denominator)
    a, b = int(A * lam**2), int(B * lam**3)
    U, V, g = a**3, b**2, []
    for N in range((n_terms + 1) // 2):
        if not b:  # P0 = 0: g_N = C(N, N/2) a**(N/2), stepped from g_(N-2)
            g.append(1 if N == 0 else 0 if N % 2 else g[-2] * a * 4 * (N - 1) // N)
            continue
        p0 = 2 * N * (2 * N - 1) * b * (2 * U * (N - 1) - 27 * V * (2 * N - 3))
        if N < 3 or not p0:
            g.append(int(yasuda_coefficient_exact(A, B, 2 * N + 1) * (2 * N + 1) * lam**N))
            continue
        p1 = a * a * (N - 1) * (2 * U * N * (N - 1) - 9 * V * ((6 * N - 9) * N + 4))
        p2 = -6 * a * b * (N - 1) * (U * ((6 * N - 9) * N + 2) - 54 * V * ((3 * N - 6) * N + 2))
        p3 = -(4 * U + 27 * V) * (N - 1) * (N - 2) * (2 * U * N - 27 * V * (2 * N - 1))
        gN, rest = divmod(-(p1 * g[-1] + p2 * g[-2] + p3 * g[-3]), p0)
        if rest:
            raise ArithmeticError(f"g_{N} of ({A}, {B}): the recurrence does not divide")
        g.append(gN)
    return FormalLogPrefix(tuple(Fraction(g[r // 2], r * lam ** (r // 2)) if r % 2 else Fraction(0)
                                 for r in range(n_terms + 1)))


# -- series-inversion oracle -------------------------------------------------


def series_inversion_logarithm(A, B, n_terms: int, force: bool = False) -> FormalLogPrefix:
    """Formal-log prefix d_0..d_{n_terms} via parameter inversion.

    With w = -1/y = t**3 * z and u = t^2, G = B u^3 z^3 + A u^2 z^2 - z + 1 = 0,
    so z_s = [s = 0] + A (z^2)_(s-2) + B (z^3)_(s-3).  From x = t^-2 / z and
    y = -t^-3 / z, dx / (2y) = (1 + u z'/z) dt with z' = dz/du.  Dividing by z,
    1/z = 1 - A u^2 z - B u^3 z^2; as z z' = (z^2)'/2 and z^2 z' = (z^3)'/3,
    u z'/z = u z' - (A/2) u^3 (z^2)' - (B/3) u^4 (z^3)'.  With z_s put in, its
    u^s coefficient (s >= 1) is c_s = (2s+1) d_(2s+1) = (3A(s+2) (z^2)_(s-2) +
    2B(2s+3) (z^3)_(s-3)) / 6 = ((4s+6) z_s - sA (z^2)_(s-2)) / 6.  The loop
    keeps 6 c_s and divides once per d_r; 6 is a unit for p >= 5, and for p = 3
    PadicScalar division lowers the absolute precision by the lost digit.

    Over Q, z' = -G_u/G_z mod G is a Riccati equation Q z' + P2 y + P1 z + P0 = 0
    with y = z^2: Q = -disc_z(G)/u^2 = u Q1, Q1 = -4B - A^2 u + 18AB u^2 + D u^3,
    D = 4A^3 + 27B^2, P2 = -B u^2 (A + 9B u), P1 = -6B - 2A^2 u + 15AB u^2 + D u^3
    and P0 = 6B + 2A^2 u.  Its u^s coefficient (s >= 2) is the step
      2B(2s+3) z_s = -A^2 (s+1) z_(s-1) + AB ((18s-21) z_(s-2) - y_(s-2))
                     + D (s-2) z_(s-3) - 9B^2 y_(s-3).
    y is linear: Q y' = 2z Q z' = -2 P2 z^3 - 2 P1 y - 2 P0 z; on G,
    B u^3 z^3 = z - 1 - A u^2 y; so u^2 Q1 y' = 2(A + 9Bu)(z - 1 - A u^2 y)
    - 2u P1 y - 2u P0 z, whose u^(t+1) coefficient (t >= 1) is the step
      4B(t+3) y_t = -[2A z_(t+1) + 6B z_t - 4A^2 z_(t-1) + A^2 (t+1) y_(t-1)
                      - 6AB(3t+2) y_(t-2) - D(t-1) y_(t-3)].
    Step s >= 2 gives z_s, then y_(s-1) (not at the last s: nothing reads it),
    then 6 c_s; each division must be exact, else ArithmeticError.  B = 0
    leaves z = 1 + A u^2 z^2: z_2k = Cat_k A^k, 6 c_s = (3s+6) z_s.  No
    convolution: O(n_terms) big-integer operations.  Over Q_p or L the
    divisions by B(2s+3) and B(t+3) would lose the digits of v(B) and of
    p | 2s+3, so z, z^2 and z^3 come from G, two half-convolutions a step.
    Those O(n_terms**2) ring operations, and over Q integers of O(n_terms)
    digits, keep the cap of 501 (the CLI's --r-max limit) unless force=True.

    Exact over Q, with A = A'/da and B = B'/db, a weight-s coefficient (of z,
    y, 6 c) is kept times F(s) = da**(s//2) db**(s//3), an integer; the steps
    sum at F(s+3), where a term of weight i lacks carry[(s+3) % 6][i].
    Independent of the multinomial route, hence an oracle for it.
    """
    if n_terms < 1:
        raise ValueError("need at least one coefficient")
    if n_terms > _SERIES_DEFAULT_CAP and not force:
        raise ValueError(
            f"n_terms={n_terms} beyond the oracle cap {_SERIES_DEFAULT_CAP}; "
            "pass force=True if you mean it"
        )
    size = (n_terms + 1) // 2  # c_0..c_(size-1)
    if isinstance(A, _Number) or isinstance(B, _Number):  # over Q_p or L, from G
        _check_ring_elements(A, B)
        zero = 0 * A
        z, z2, z3, c6 = [], [], [], []
        for s in range(size):
            a_s = A * z2[s - 2] if s >= 2 else zero
            b_s = B * z3[s - 3] if s >= 3 else zero
            z.append(a_s + b_s if s else zero + 1)
            c6.append(3 * (s + 2) * a_s + 2 * (2 * s + 3) * b_s)
            h = s // 2
            if s < size - 2:  # (z^2)_s is read at s + 2, (z^3)_s at s + 3
                z2.append(2 * sum(map(mul, z[h + 1:], z[s - h - 1::-1]), zero)
                          + (zero if s % 2 else z[h] * z[h]))
            if s < size - 3:
                z3.append(sum(map(mul, z, reversed(z2)), zero))
        d = [zero + 1] + [c6[s] / (6 * (2 * s + 1)) for s in range(1, size)]
        return FormalLogPrefix(tuple(d[r // 2] if r % 2 else zero for r in range(n_terms + 1)))
    A, B, zero = Fraction(A), Fraction(B), Fraction(0)
    da, db = A.denominator, B.denominator
    a, b = A.numerator, B.numerator * da  # F(2) A and F(3) B
    z, y = [1, 0], [1, 0]  # z_0, z_1 and y_0, y_1 (read as index -1 at s = 2 and t = 2)
    if not b:  # z_2k = Cat_k a^k at F(2k), Cat_k = Cat_(k-1) 2(2k-1)/(k+1)
        for s in range(2, size):
            z.append(0 if s % 2 else z[-2] * a * (2 * s - 2) // (s // 2 + 1))
        c6 = [(3 * s + 6) * z[s] for s in range(size)]
    else:
        # carry[s % 6][i % 6]: the factor of F(s) that F(i) F(s-i) lacks.
        carry = [[(da if i % 2 > t % 2 else 1) * (db if i % 3 > t % 3 else 1) for i in range(6)]
                 for t in range(6)]
        # A^2, AB, 2B and A at F(4), F(5), F(3) and F(2), carried to F(s+3) by s mod 6
        ric = [(a * a * db * ks[4], a * b * ks[5], 2 * b * ks[3], a * ks[2])
               for ks in carry[3:] + carry[:3]]
        d6, b6 = 4 * a**3 * db**2 + 27 * b * b * da, 9 * b * b * da  # D and 9B^2 at F(6)
        for s in range(2, size):
            a2, ab, b2, _ = ric[s % 6]
            z_s, rest = divmod(ab * ((18 * s - 21) * z[s - 2] - y[s - 2]) - a2 * (s + 1) * z[s - 1]
                               + d6 * (s - 2) * z[s - 3] - b6 * y[s - 3], b2 * (2 * s + 3))
            if rest:
                raise ArithmeticError(f"z_{s} of ({A}, {B}): the Riccati step does not divide")
            z.append(z_s)
            if 3 <= s < size - 1:  # y_(s-1), read by step s + 1 only
                y.append(_square_step(s - 1, z, y, ric, d6))
        c6 = [(4 * s + 6) * z[s] - (s * ric[(s - 3) % 6][3] * y[s - 2] if s >= 2 else 0)
              for s in range(size)]
    d = [Fraction(1)] + [Fraction(c6[s], 6 * (2 * s + 1) * da ** (s // 2) * db ** (s // 3))
                         for s in range(1, size)]  # off the grading: one gcd per d_r
    return FormalLogPrefix(tuple(d[r // 2] if r % 2 else zero for r in range(n_terms + 1)))


def _square_step(t: int, z: list, y: list, ric: list, d6: int) -> int:
    """y_t = (z^2)_t at F(t), t >= 2: the linear step of `series_inversion_logarithm`."""
    a2, ab, b2, a1 = ric[t % 6]
    y_t, rest = divmod(a2 * (4 * z[t - 1] - (t + 1) * y[t - 1]) - 2 * a1 * z[t + 1] - 3 * b2 * z[t]
                       + 6 * ab * (3 * t + 2) * y[t - 2] + d6 * (t - 1) * y[t - 3], 2 * b2 * (t + 3))
    if rest:
        raise ArithmeticError(f"(z^2)_{t}: the linear step does not divide")
    return y_t


def hasse_invariant(A, B, p: int | None = None):
    """Coefficient of x**(p-1) in (x**3 + A x + B)**((p-1)/2).

    Returns the same element type as the inputs (Fraction over Q).  Equals
    p * d_p, which the test suite checks on both routes.
    """
    if isinstance(A, _Number) or isinstance(B, _Number):  # typed: over Q_p or L
        _check_ring_elements(A, B)
        if p not in (None, A.prime):
            raise ValueError("p does not match the coefficient field")
        p, total = A.prime, 0 * A  # total: an exact zero of A's type
    elif p is None:
        raise ValueError("p is needed for rational coefficients")
    else:
        A, B, total = Fraction(A), Fraction(B), Fraction(0)
    M = (p - 1) // 2
    # 3i <= p - 1 and 2i >= M, so both exponents below are >= 0.
    for i in range((p + 2) // 4, (p - 1) // 3 + 1):
        j = p - 1 - 3 * i
        k = 2 * i - M
        coeff = math.comb(M, i) * math.comb(M - i, j)
        total = total + coeff * (A**j) * (B**k)
    return total


def odd_coefficient_valuation(a_l: EisensteinElement, b_l: EisensteinElement, k: int):
    """Predicted v(d_{p^(2k+1)}) for a normalized good model over L.

    -(k+1) + v of its `deforming_coefficient` (A_L for e in {3, 6}, B_L for
    e = 4); INFINITY in the CM cases (the coefficient vanishes identically).
    """
    _check_ring_elements(a_l, b_l)
    if k < 0:
        raise ValueError("k must be nonnegative")
    v = deforming_coefficient((a_l, b_l)).valuation()
    if v == INFINITY:
        return INFINITY
    return Fraction(-(k + 1)) + v
