"""Seeded workload corpora and the expected answers they are checked against.

Each workload is a list of *patterns*; one *pass* of the corpus holds every
pattern `count` times, drawn afresh from the seeded generator.  A run works
through whole passes, so every run measures the same mix of curve shapes
whatever the seed, and only the random units change.

Generic lifts follow the acceptance suite's random lift: a coefficient is
``(u + p*r) * p**v`` with ``1 <= u < p``.  Here ``r`` is drawn from the top
half of ``[0, p**2)``, so every unit has about ``3*log2(p)`` bits and the cost
of the exact powers it feeds is set by the pattern, not by the draw.

The expected classify fields are derived from the valuations the generator
chose, through the closed forms in `padic_cartan.volkov` and
`padic_cartan.classifier`; none of them touches the formal-log route that the
benchmark times.  The payload's own `v_beta` comes from those same closed
forms, so it cannot catch a wrong log route; the gate therefore also reads
v(beta) off the digits of the beta the log route returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from padic_cartan.classifier import FULL_LABEL, index_at_stabilization
from padic_cartan.padic import INFINITY, vp
from padic_cartan.volkov import (
    has_canonical_subgroup,
    stabilization_level,
    v_alpha_table,
    v_beta_closed_form,
)

# The classify fields the correctness gate compares.  `k_used` and the beta
# digits are left out on purpose: they depend on the level default, which a
# later change may legitimately move.
GATED_FIELDS = ("defect", "reduction_type", "image_label", "n0", "index_at_level")
GATED_HODGE_FIELDS = ("v_beta", "epsilon", "v_alpha")


@dataclass(frozen=True)
class Pattern:
    """One curve shape y**2 = x**3 + a*x + b over Q_p.

    kind "lift": a = unit * p**va, b = unit * p**vb; None makes it exactly 0.
    kind "unit_den": the lift divided by integers prime to p.
    kind "p_den": the lift scaled by p**-4, p**-6 (the same curve over Q_p).
    kind "multiplicative": a = -3*u**2, b = 2*u**3 + p**vb * w, so that
    4a**3 + 27b**2 has valuation exactly vb and j has a pole.
    """

    p: int
    va: object
    vb: object
    count: int
    kind: str = "lift"


def _group(total, *shapes):
    """Patterns for `total` curves a pass, split as evenly as the shapes allow.

    A shape is (p, va, vb) or (p, va, vb, kind).
    """
    n = len(shapes)
    return tuple(
        Pattern(*shape[:3], total // n + (i < total % n), *shape[3:])
        for i, shape in enumerate(shapes)
    )


# shallow-batch: cheap curves (0.2-50 ms each) that hit every gate of
# `classify`.  Fixed per-curve costs show here: repeated
# `semistability_defect`, the gates, `to_dict` and the JSON output.  Each of
# the eight groups below gets the same share of a pass, split evenly over its
# shapes; no group is weighted by what it costs.
SHALLOW_GROUP_SHARE = 24
SHALLOW = (
    # p = 11 lifts through the log route to a level label, adaptive k <= 2
    # (e = 3, 3, 3, 3, 6, 6, 4, 4).
    *_group(
        SHALLOW_GROUP_SHARE,
        (11, 3, 2), (11, 4, 4), (11, 5, 4), (11, 4, 2),
        (11, 2, 1), (11, 5, 5), (11, 1, 3), (11, 3, 6),
    ),
    # CM lifts: one coefficient exactly zero, beta = 0.
    *_group(SHALLOW_GROUP_SHARE, (11, None, 2), (11, None, 1), (11, 1, None), (11, 3, None)),
    # Canonical-subgroup gate (e = 3 with v(j) in {1, 2}; e = 4 with
    # v(j - 1728) = 1).
    *_group(SHALLOW_GROUP_SHARE, (11, 2, 2), (11, 3, 4), (11, 1, 2)),
    # Ordinary gate: e does not divide p + 1, or a j = 0 / 1728 curve at a
    # prime where it is ordinary.
    *_group(SHALLOW_GROUP_SHARE, (13, 3, 2), (13, 1, 3), (13, None, 0), (13, 0, None)),
    # Small-prime gate, p <= 7 (p = 5, e = 6 has no log route at all).
    *_group(SHALLOW_GROUP_SHARE, (5, 3, 2), (7, 1, 3), (5, 2, 1), (5, None, 0), (7, 0, None)),
    # e in {1, 2}: good supersingular over Q_p or a quadratic extension.
    *_group(
        SHALLOW_GROUP_SHARE,
        (11, None, 0), (11, 0, None), (11, None, 3),
        (11, 2, None), (17, None, 0), (23, 0, None),
    ),
    # Potentially multiplicative reduction.
    *_group(SHALLOW_GROUP_SHARE, (11, 0, 1, "multiplicative"), (13, 0, 2, "multiplicative")),
    # Rational coefficients, both kinds of denominator.
    *_group(
        SHALLOW_GROUP_SHARE,
        (11, 3, 2, "unit_den"), (11, 2, 1, "unit_den"), (11, 1, 3, "p_den"), (11, 5, 4, "p_den"),
    ),
)

# deep-batch: generic lifts at p in {17, 19} with adaptive k = 2.  Here
# `yasuda_coefficient` raises units to exact powers with exponents near
# p**5/6 (multi-megabit integers) and builds a factorial-unit table per
# prime, so the padic layer dominates and classify/CLI overhead is
# negligible.  One curve a pass of each shape: p = 17 ops take about 0.35 s
# and p = 19 ops about 1.6 s.  p = 23 (3-10 s per curve) is left out: with a handful of such ops per run
# the tail percentiles followed the host's load more than the code.
DEEP = (
    Pattern(17, 3, 2, 1),
    Pattern(17, 2, 1, 1),
    Pattern(17, 5, 4, 1),
    Pattern(17, 5, 5, 1),
    Pattern(17, 4, 2, 1),
    Pattern(19, 1, 3, 1),
    Pattern(19, 3, 6, 1),
)

# exact-logcoeffs: `logcoeffs --r-max 501` by both routes on rational curves.
# Exact Fraction arithmetic with no truncation and no EisensteinElement, so a
# speed-up of the truncated route bought at the oracle's cost shows here.
# The a = 0 curve exercises the multinomials of terms that vanish.
LOGCOEFF_R_MAX = 501
LOGCOEFF_CURVES_PER_PASS = 4
LOGCOEFF_DENOMINATORS = (23, 29, 31, 37)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "classify" or "logcoeffs"
    patterns: tuple
    max_passes: int  # passes written out; a run stops earlier on time


WORKLOADS = {
    w.name: w
    for w in (
        Workload("shallow-batch", "classify", SHALLOW, 40),
        Workload("deep-batch", "classify", DEEP, 64),
        Workload("exact-logcoeffs", "logcoeffs", (), 32),
    )
}


# -- generation -----------------------------------------------------------------


def _unit(rng, p):
    return rng.randrange(1, p) + p * rng.randrange(p * p // 2, p * p)


def _prime_to(rng, p, low, high):
    while True:
        d = rng.randrange(low, high)
        if d % p:
            return d


def _fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _draw(rng, pat):
    p = pat.p
    if pat.kind == "multiplicative":
        while True:
            u, w = _unit(rng, p), _unit(rng, p)
            a = Fraction(-3 * u * u)
            b = Fraction(2 * u**3 + p**pat.vb * w)
            if vp(4 * a**3 + 27 * b**2, p) == pat.vb:
                return a, b
    a = Fraction(0) if pat.va is None else Fraction(_unit(rng, p) * p**pat.va)
    b = Fraction(0) if pat.vb is None else Fraction(_unit(rng, p) * p**pat.vb)
    if pat.kind == "unit_den":
        a /= _prime_to(rng, p, 2, 100)
        b /= _prime_to(rng, p, 2, 100)
    elif pat.kind == "p_den":
        a /= p**4
        b /= p**6
    return a, b


def classify_pass(rng, patterns):
    """One pass of (p, a, b) triples, in pattern order, each valid input."""
    out = []
    for pat in patterns:
        for _ in range(pat.count):
            while True:
                a, b = _draw(rng, pat)
                if 4 * a**3 + 27 * b**2 != 0 and _valuations_as_planned(pat, a, b):
                    break
            out.append((pat.p, a, b))
    return out


def _valuations_as_planned(pat, a, b):
    """Reject the rare draw where 4a**3 + 27b**2 cancels beyond the pattern."""
    p = pat.p
    if pat.kind == "multiplicative":
        return True
    va, vb = vp(a, p), vp(b, p)
    vd = vp(4 * a**3 + 27 * b**2, p)
    return vd == min(3 * va, 2 * vb)


def batch_line(p, a, b):
    return f"{p} {_fmt(a)} {_fmt(b)}"


def logcoeff_pass(rng):
    """One pass of rational (a, b) pairs; the first has a = 0.

    Numerators come from [70, 100) and a, b get distinct prime denominators
    from LOGCOEFF_DENOMINATORS.  Denominators sharing factors would let the
    exact coefficients cancel, and their cost would vary several-fold with
    the seed.
    """

    def rational(den):
        while True:
            num = rng.randrange(70, 100)
            if num % den:
                return Fraction(rng.choice((1, -1)) * num, den)

    out = []
    while len(out) < LOGCOEFF_CURVES_PER_PASS:
        den_a, den_b = rng.sample(LOGCOEFF_DENOMINATORS, 2)
        a = Fraction(0) if not out else rational(den_a)
        b = rational(den_b)
        if 4 * a**3 + 27 * b**2 != 0:
            out.append((a, b))
    return out


def logcoeff_argv(a, b, method):
    # argparse reads "-4/11" as an option, so values go in as --a=-4/11.
    return [
        "logcoeffs",
        f"--a={_fmt(a)}",
        f"--b={_fmt(b)}",
        "--r-max",
        str(LOGCOEFF_R_MAX),
        "--method",
        method,
    ]


def build(workload, seed, passes=None):
    """The ops of `passes` corpus passes (default: the workload maximum).

    classify ops are (p, a, b); logcoeffs ops are (a, b).  Returns the op
    list and the pass length.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    passes = workload.max_passes if passes is None else passes
    ops = []
    for _ in range(passes):
        if workload.command == "classify":
            ops.extend(classify_pass(rng, workload.patterns))
        else:
            ops.extend(logcoeff_pass(rng))
    return ops, len(ops) // passes


# -- expected classify fields -----------------------------------------------------


def _encode(value):
    """The CLI's JSON encoding of exact data: Fractions as strings.

    Written out here rather than imported, so that a change of the output
    format fails the gate instead of moving with it.
    """
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, float):
        return "inf" if value > 0 else "-inf"
    return str(value)


def expected_classify(p, a, b):
    """Gated classify fields for y**2 = x**3 + a x + b, from valuations alone."""
    a, b = Fraction(a), Fraction(b)
    va, vb = vp(a, p), vp(b, p)
    vd = vp(4 * a**3 + 27 * b**2, p)  # v(disc) since p > 3
    v_j = 3 * va - vd if a else INFINITY
    v_jm = 2 * vb - vd if b else INFINITY
    # Minimal model: scale by p**-s, s = min(v(a)//4, v(b)//6).
    s = min(va // 4 if a else INFINITY, vb // 6 if b else INFINITY)
    vd_min = vd - 12 * s
    out = dict.fromkeys(GATED_FIELDS)
    out["prime"] = p
    out["hodge"] = None
    if v_j < 0:
        out.update(
            defect=1 if va - 4 * s == 0 else 2,
            reduction_type="multiplicative",
            image_label="out_of_scope(multiplicative_reduction)",
        )
        return out
    e = 12 // math.gcd(12, vd_min)
    if e in (3, 4, 6):
        supersingular = (p + 1) % e == 0
    elif a == 0:  # j = 0: supersingular exactly when p = 2 mod 3
        supersingular = p % 3 == 2
    elif b == 0:  # j = 1728: supersingular exactly when p = 3 mod 4
        supersingular = p % 4 == 3
    else:
        raise ValueError("e in {1, 2} is only generated for j = 0 or 1728")
    out["defect"] = e
    out["reduction_type"] = "good_supersingular" if supersingular else "good_ordinary"
    if not supersingular:
        out["image_label"] = "out_of_scope(ordinary_reduction)"
        return out
    if e in (1, 2):
        if p <= 7:
            out["image_label"] = "out_of_scope(p_not_greater_than_7)"
        else:
            out.update(image_label=FULL_LABEL, index_at_level=1)
        return out

    v_beta = v_beta_closed_form(e, v_j, v_jm)
    epsilon = 1 if vd_min in (2, 3, 4) else -1
    if v_beta == INFINITY:
        v_alpha = -INFINITY if epsilon == 1 else INFINITY
    else:
        v_alpha = v_alpha_table(e, vd_min, v_j, v_jm)
    if e < p - 1:  # the log route needs e < p - 1
        out["hodge"] = {
            "v_beta": _encode(v_beta),
            "epsilon": epsilon,
            "v_alpha": _encode(v_alpha),
        }
    if has_canonical_subgroup(e, v_j, v_jm):
        out["image_label"] = "out_of_scope(canonical_subgroup)"
        return out
    if p <= 7:
        out["image_label"] = "out_of_scope(p_not_greater_than_7)"
        return out
    index = index_at_stabilization(p, e, vd_min)
    if v_beta == INFINITY:
        out.update(image_label=FULL_LABEL, index_at_level=index)
        return out
    n0 = stabilization_level(e, v_j, v_jm)
    out["n0"] = n0
    if p * p <= n0 + 1:
        out["image_label"] = "out_of_scope(p_not_greater_than_sqrt_n0_plus_1)"
        return out
    stem = "preimage_of_index3_subgroup" if index == 3 else "preimage_of_Cns_plus"
    out.update(image_label=f"{stem}_level_{n0}", index_at_level=index)
    return out


def beta_valuation(beta, p):
    """(visible, floor) for a payload's beta, read off its pi-coordinates.

    Coordinate i stands for c_i * pi**i with c_i known mod p**N_i.  `visible`
    is the least v(c_i) + i/e over the nonzero c_i and `floor` the least
    N_i + i/e over the zero ones (INFINITY where there are none).  v(beta)
    is `visible` when that lies below `floor`, and only known to be at least
    `floor` otherwise.
    """
    coords = beta["coordinates"]
    e = len(coords)
    visible = floor = INFINITY
    for i, (c, n) in enumerate(zip(coords, beta["coordinate_precisions"])):
        if Fraction(c):
            visible = min(visible, vp(Fraction(c), p) + Fraction(i, e))
        elif n != "inf":
            floor = min(floor, Fraction(n) + Fraction(i, e))
    return visible, floor


def _beta_agrees(beta, p, v_beta):
    """Whether the log route's beta has the closed-form valuation `v_beta`."""
    visible, floor = beta_valuation(beta, p)
    if visible < floor:
        return visible == v_beta
    return v_beta >= floor


def check_classify(payload, expected):
    """Names of the gated fields where `payload` differs from `expected`.

    Besides the listed fields, the valuation of the beta the log route
    returned must equal the closed form (or be consistent with it, where
    beta is zero to its precision).
    """
    bad = [f for f in GATED_FIELDS if payload.get(f) != expected[f]]
    hodge, want = payload.get("hodge"), expected["hodge"]
    if (hodge is None) != (want is None):
        bad.append("hodge")
    elif want is not None:
        bad.extend(f"hodge.{f}" for f in GATED_HODGE_FIELDS if hodge.get(f) != want[f])
        v_beta = INFINITY if want["v_beta"] == "inf" else Fraction(want["v_beta"])
        beta = hodge.get("beta")
        if beta is None or not _beta_agrees(beta, expected["prime"], v_beta):
            bad.append("hodge.beta")
    return bad
