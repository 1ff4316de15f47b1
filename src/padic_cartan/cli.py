"""Command-line front end.

Subcommands: classify (full image report for one curve or a batch file),
beta (deformation parameters only, with request-style precision), logcoeffs
(exact rational formal-log coefficients over Q), divpoly (g_k tables and
root-valuation partitions), adelic-bound (the floating-point height bounds),
and examples (self-check against the frozen worked examples).

Exit status: 0 for any completed run, including out_of_scope classifications
and the p-adic gates; 1 when an `examples` regression check fails or raises;
2 for input errors (bad prime, singular model, malformed rationals, oversize
requests without --force).  Input errors are ValueErrors (every
PadicCartanError is one), and `main` alone turns them into one stderr line.

JSON output uses a canonical field order and no floats outside adelic-bound,
so every payload re-serializes byte-identically.  The text renderer walks
the same payload, so both modes report identical fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter

from .classifier import (
    _eisenstein_json,
    _encode_exact,
    _hodge_dict,
    adelic_bound,
    classify,
    per_prime_index_bound,
)
from .curve import WeierstrassCurve, good_model_over_L
from .divpoly import build_gk, format_table, root_valuation_partition
from .eisenstein import EisensteinElement
from .formal_log import (
    _EXACT_MULTINOMIAL_CAP,
    _SERIES_DEFAULT_CAP,
    recurrence_logarithm,
    series_inversion_logarithm,
    yasuda_coefficient,
    yasuda_coefficient_exact,
)
from .padic import INFINITY, PadicScalar, check_odd_prime
from .volkov import beta_from_logarithm, hodge_parameters, v_alpha_table

_DEFAULT_PRECISION = "4e"  # enough to report the k <= 3 certificates in full
_DIVPOLY_K_CAP = 3
# Adaptive-level cap of `classify`.  The library's own default is 3; the CLI
# keeps 2, which the benchmark corpora assume (with 3, p=11 and p=17 lifts
# of v(beta) = 7/3 move to k=3).
_DEFAULT_K_MAX = 2


def _check_printable(digits: int, request: str) -> None:
    """Refuse `request` if it prints an int of `digits` digits, past Python's int to str
    limit read at call time (0, or an interpreter before 3.10.7, has none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ValueError(f"{request}, over Python's {limit}-digit limit for int to str conversion")


def _parse_rational(text, label: str) -> Fraction:
    text = str(text)
    try:
        # Integers and n/d only: Fraction("1e19999999") builds a 20-million-digit int.
        if "e" in text.lower() or "." in text:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{label} must be a rational like 7 or -7/4, got {text!r}") from exc


def _resolve_precision(flag_value: str, e: int) -> int:
    """pi_e-digit precision from a digit count ("12") or an e-multiplier ("4e")."""
    text = flag_value.strip().lower()
    try:
        if text.endswith("e"):
            return int(text[:-1] or 1) * e
        return int(text)
    except ValueError:
        raise ValueError(
            f"precision must be a digit count or an e-multiplier like 4e, got {text!r}"
        ) from None


def _build_curve(p, a_text, b_text) -> WeierstrassCurve:
    return WeierstrassCurve(p, _parse_rational(a_text, "a"), _parse_rational(b_text, "b"))


def _fmt_leaf(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _print_text(payload: dict, indent: int = 0) -> None:
    """Render a JSON payload as key: value lines, one field per line.

    Ring elements carry a "repr" field which stands in for the whole
    coordinate dict in text mode.
    """
    pad = " " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            if "repr" in value:
                print(f"{pad}{key}: {value['repr']}")
            else:
                print(f"{pad}{key}:")
                _print_text(value, indent + 2)
        elif key == "hypotheses_checked":
            print(f"{pad}{key}:")
            for condition, holds in value:
                print(f"{pad}  {condition}: {_fmt_leaf(holds)}")
        else:
            print(f"{pad}{key}: {_fmt_leaf(value)}")


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        _print_text(payload)


# -- classify -----------------------------------------------------------------


def _classify_one(p, a_text, b_text, args) -> dict:
    curve = _build_curve(p, a_text, b_text)
    precision = _resolve_precision(args.precision, curve.reduction.defect)
    report = classify(p, curve.a, curve.b, precision=precision, k=args.k, k_cap=args.k_max,
                      curve=curve)
    return report.to_dict()


def _cmd_classify(args) -> int:
    if args.batch is not None:
        return _classify_batch(args)
    if args.p is None or args.a is None or args.b is None:
        raise ValueError("classify needs --p, --a and --b (or --batch FILE)")
    _emit(_classify_one(args.p, args.a, args.b, args), args.json)
    return 0


def _classify_batch(args) -> int:
    try:
        with open(args.batch, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read batch file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if len(fields) != 3:
                raise ValueError(f"expected 'p a b', got {raw.strip()!r}")
            try:
                p = int(fields[0])
            except ValueError:
                raise ValueError("p must be an integer") from None
            payload = _classify_one(p, fields[1], fields[2], args)
        except ValueError as exc:
            raise ValueError(f"{args.batch}:{lineno}: {exc}") from None
        if args.json:
            print(json.dumps(payload, separators=(",", ":")))
        else:
            print(f"p={p} a={fields[1]} b={fields[2]} label={payload['image_label']} "
                  f"n0={_fmt_leaf(payload['n0'])} "
                  f"index={_fmt_leaf(payload['index_at_level'])}")
    return 0


# -- beta ---------------------------------------------------------------------


def _cmd_beta(args) -> int:
    curve = _build_curve(args.p, args.a, args.b)
    e = curve.reduction.defect
    precision = None if args.precision is None else _resolve_precision(args.precision, e)
    hodge = hodge_parameters(curve, k=args.k, precision=precision)
    _emit({"prime": curve.prime, "defect": e, **_hodge_dict(hodge)}, args.json)
    return 0


# -- logcoeffs ------------------------------------------------------------------


def _logcoeff_digits(a: Fraction, b: Fraction, r_max: int) -> int:
    """A bound on the decimal digits of the numerator and of the denominator of
    d_r over Q, for every odd r <= r_max.

    The terms C(N; m+2n, m, n) a**m b**n of r*d_r have 2m + 3n = N = (r-1)/2,
    so the denominator divides D = r * den(a)**(N//2) * den(b)**(N//3), and
    the numerator is at most D/r times the sum of |terms|: the constant term
    of (x + |a|/x + |b|/x**2)**N, at most its value at any x > 0, taken near
    the least one, where x**3 = |a| x + 2|b|.  N//2, N//3 and max(N * slope,
    log10(2N+1)) do not decrease with N, so the bound at the largest N serves."""
    def log_sum(ys):  # log(sum(exp(y))), past the range of a float
        top = max(ys)
        return top + math.log(sum(math.exp(y - top) for y in ys))

    terms = [(math.log(abs(q.numerator)) - math.log(q.denominator), k)  # |q| / x**k
             for q, k in ((a, 1), (b, 2)) if q]
    t = 0.0  # log x; x <- (|a| x + 2|b|)**(1/3) contracts by at least 3
    for _ in range(60):
        t = log_sum([c + math.log(k) + (2 - k) * t for c, k in terms]) / 3
    slope = log_sum([t] + [c - k * t for c, k in terms]) / math.log(10)
    N, da, db = (r_max - 1) // 2, math.log10(a.denominator), math.log10(b.denominator)
    return int(N // 2 * da + N // 3 * db + max(N * slope, math.log10(2 * N + 1)) + 1e-9) + 1


def _cmd_logcoeffs(args) -> int:
    a = _parse_rational(args.a, "a")
    b = _parse_rational(args.b, "b")
    r_max = args.r_max
    if r_max < 1:
        raise ValueError("r-max must be >= 1")
    # Both exact routes are refused here, before any work, even with --force.
    if (r_max - 1) // 2 > _EXACT_MULTINOMIAL_CAP:
        raise ValueError(
            f"r-max {r_max} > {2 * _EXACT_MULTINOMIAL_CAP + 1} is beyond the exact "
            f"{args.method} route, even with --force"
        )
    if r_max > _SERIES_DEFAULT_CAP and not args.force:
        raise ValueError(
            f"r-max {r_max} > {_SERIES_DEFAULT_CAP} is slow; pass --force to allow it"
        )
    if 4 * a**3 + 27 * b**2 == 0:
        raise ValueError(f"discriminant vanishes for a={a}, b={b}")
    digits, r = _logcoeff_digits(a, b, r_max), (r_max - 1) | 1  # r: the last odd r <= r_max
    _check_printable(digits, f"--r-max {r_max}: d_{r} may need up to {digits} digits")
    prefix = (series_inversion_logarithm(a, b, r_max, force=True) if args.method == "series"
              else recurrence_logarithm(a, b, r_max))
    pairs = [(r, prefix.d(r)) for r in range(1, r_max + 1, 2)]
    if args.json:
        payload = {
            "a": str(a),
            "b": str(b),
            "method": args.method,
            "r_max": r_max,
            "coefficients": [[r, str(value)] for r, value in pairs],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r, value in pairs:
            print(f"d_{r} = {value}")
    return 0


# -- divpoly --------------------------------------------------------------------


def _partition_lines(partition) -> list:
    lines = []
    for valuation, count in partition:
        noun = "root" if count == 1 else "roots"
        lines.append(f"{count} {noun} of valuation {_encode_exact(valuation)}")
    return lines


def _cmd_divpoly(args) -> int:
    p, e, k = args.p, args.e, args.k
    if k > _DIVPOLY_K_CAP and not args.force:
        raise ValueError(
            f"k {k} > {_DIVPOLY_K_CAP} gives degree p**{2 * k}; pass --force to allow it"
        )
    v = None if args.alpha_inf else args.v_alpha_inv
    if v is not None and v < 0:
        raise ValueError("v-alpha-inv must be >= 0 (twist-normalize first)")
    # Both modes print the degree p**(2k); the JSON also prints the lifts, up to p**(v + k).
    flag, power = f"--k {k}", 2 * k
    if args.json and v is not None and v > k:
        flag, power = f"--v-alpha-inv {v}", v + k
    _check_printable(math.floor(power * Fraction(math.log10(check_odd_prime(p)))) + 1,
                     f"{flag} puts {p}**{power} in the {'JSON' if args.json else 'table'}")
    if v is not None and v + k > sys.float_info.max:  # a precision adds inf to each floor
        raise ValueError(f"--v-alpha-inv {v} puts a floor past the float range")
    alpha_inv = 0 if v is None else PadicScalar(p, 1, v, INFINITY)  # p**v, not the int p**v
    poly = build_gk(p, e, alpha_inv, k)
    partition = root_valuation_partition(poly)
    if args.json:
        payload = {
            "p": p,
            "e": e,
            "k": k,
            "v_alpha_inv": v,
            "alpha_infinite": args.alpha_inf,
            "degree": poly.degree,
            "coefficients": [
                [n, _eisenstein_json(poly.coefficients[n])] for n in poly.support
            ],
            "partition": [
                [_encode_exact(valuation), count] for valuation, count in partition
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(poly))
        for line in _partition_lines(partition):
            print(line)
    return 0


# -- adelic-bound -----------------------------------------------------------------


def _cmd_adelic_bound(args) -> int:
    bound = adelic_bound(args.h_j)
    payload = {"h_j": args.h_j, "bound_a": bound.bound_a, "bound_b": bound.bound_b}
    if (args.index_p is None) != (args.index_n is None):
        raise ValueError("--index-p and --index-n must be given together")
    if args.index_p is not None:
        p, n = check_odd_prime(args.index_p), args.index_n
        digits = math.floor(2 * n * Fraction(math.log10(p))) + 1  # of p**(2n) >= c * p**(2n-1)
        _check_printable(digits, f"--index-n {n}: the bound may need up to {digits} digits")
        j = None
        if args.j is not None:
            j = _parse_rational(args.j, "j")
        per_prime = per_prime_index_bound(p, n, mod_p_case=args.mod_p_case, j_invariant=j)
        payload["per_prime"] = {
            "p": p,
            "n": n,
            "mod_p_case": args.mod_p_case,
            "bound": per_prime,
        }
    _emit(payload, args.json)
    return 0


# -- examples ---------------------------------------------------------------------

# (p, a, b) of the worked examples 1 and 2.
_EXAMPLE1 = (11, 11**3, 11**2)
_EXAMPLE2 = (23, 23**4, 23**2)


def _congruent_scalar_times_pi(got, lift, pi_power, p, e, prec_p, pi_digits):
    """Is `got` congruent to lift * pi**pi_power mod pi**pi_digits?"""
    scalar = PadicScalar.from_rational(Fraction(lift), p, prec_p)
    want = EisensteinElement.pi_monomial(scalar, pi_power, e)
    return got.is_congruent(want, pi_digits)


def _check_example1_log_coefficients() -> list:
    p = _EXAMPLE1[0]
    model = good_model_over_L(WeierstrassCurve(*_EXAMPLE1), 3)
    frozen = [
        (p, Fraction(20), 2),
        (p**2, Fraction(59003, p), 0),
        (p**3, Fraction(-62940, p), 2),
        (p**4, Fraction(370910, p**2), 0),
        (p**5, Fraction(-859443, p**2), 2),
    ]
    problems = []
    for r, lift, pi_power in frozen:
        got = yasuda_coefficient(model.a, model.b, r, 12)
        if not _congruent_scalar_times_pi(got, lift, pi_power, p, 3, 4, 12):
            problems.append(f"d_{r} = {got!r} != {lift}*pi^{pi_power} mod pi^12")
    return problems


def _check_example1_beta_k1_window() -> list:
    beta = beta_from_logarithm(good_model_over_L(WeierstrassCurve(*_EXAMPLE1), 3), 1)
    problems = []
    if not beta.is_zero_to_precision():
        problems.append(f"beta at k=1 should vanish mod pi^4, got {beta!r}")
    if beta.pi_precision() != 4:
        problems.append(f"k=1 window should be pi^4, got pi^{beta.pi_precision()}")
    return problems


def _check_example1_beta_k2_value() -> list:
    p = _EXAMPLE1[0]
    hodge = hodge_parameters(WeierstrassCurve(*_EXAMPLE1), k=2)
    problems = []
    if not _congruent_scalar_times_pi(hodge.beta, 2 * p, 1, p, 3, 2, 7):
        problems.append(f"beta != 2*p*pi mod pi^7: {hodge.beta!r}")
    if hodge.alpha.residue() != 5:
        problems.append(f"alpha residue = {hodge.alpha.residue()} != 5")
    return problems


# (check name, p, a, b, forced k, expected report fields); a dotted field is
# read off the report's hodge parameters.
_CLASSIFY_EXAMPLES = (
    ("example1_classification", *_EXAMPLE1, None, (
        ("image_label", "preimage_of_index3_subgroup_level_1"), ("n0", 1),
        ("index_at_level", 3), ("defect", 3), ("canonical_subgroup", False),
        ("hodge.v_beta", Fraction(4, 3)), ("hodge.epsilon", 1), ("hodge.v_alpha", 0))),
    ("example2_classification", *_EXAMPLE2, 1, (
        ("image_label", "preimage_of_Cns_plus_level_2"), ("n0", 2),
        ("index_at_level", 1), ("hodge.v_beta", Fraction(7, 3)), ("hodge.v_alpha", -1))),
    ("example3_canonical_gate", 11, 11, 11**2, None, (
        ("image_label", "out_of_scope(canonical_subgroup)"),
        ("canonical_subgroup", True), ("hodge.v_beta", Fraction(1, 4)))),
)


def _check_classification(p, a, b, k, want) -> list:
    report = classify(p, a, b, k=k)
    problems = []
    for field, expected in want:
        got = attrgetter(field)(report)
        if got != expected:
            problems.append(f"{field} = {got!r} != {expected!r}")
    return problems


def _check_dr_dual_route() -> list:
    p = 11
    a, b = Fraction(p**3), Fraction(p**2)
    series, recurrence = series_inversion_logarithm(a, b, 41), recurrence_logarithm(a, b, 41)
    problems = []
    for r in range(1, 42, 2):
        direct = yasuda_coefficient_exact(a, b, r)
        if not direct == series.d(r) == recurrence.d(r):
            problems.append(f"d_{r}: multinomial {direct}, series {series.d(r)}, "
                            f"recurrence {recurrence.d(r)}")
    return problems


def _check_valpha_table_vs_alpha() -> list:
    # At k=2 (example 1) and k=3 (example 2) beta is visible, so alpha is
    # computed from it; the table is the independent closed form.
    problems = []
    for (p, a, b), k in ((_EXAMPLE1, 2), (_EXAMPLE2, 3)):
        curve = WeierstrassCurve(p, a, b)
        red = curve.reduction
        alpha = hodge_parameters(curve, k=k).alpha
        table = v_alpha_table(
            red.defect,
            red.v_min_discriminant,
            curve.v_j,
            curve.v_j_minus_1728,
        )
        if alpha.valuation != table:
            problems.append(
                f"p={p}: v(alpha) from beta {alpha.valuation} != table {table}"
            )
    return problems


_EXAMPLE_CHECKS = (
    ("example1_log_coefficients", _check_example1_log_coefficients),
    ("example1_beta_k1_window", _check_example1_beta_k1_window),
    ("example1_beta_k2_value", _check_example1_beta_k2_value),
    *((name, partial(_check_classification, *row)) for name, *row in _CLASSIFY_EXAMPLES),
    ("dr_dual_route", _check_dr_dual_route),
    ("valpha_table_vs_alpha", _check_valpha_table_vs_alpha),
)


def _cmd_examples(args) -> int:
    if args.list:
        for name, _ in _EXAMPLE_CHECKS:
            print(name)
        return 0
    results = []
    for name, check in _EXAMPLE_CHECKS:
        try:
            problems = check()
        except Exception as exc:  # a check that raises has regressed; run the rest
            import traceback  # only here, so the other commands never load it
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        results.append({"name": name, "pass": not problems, "detail": problems})
    all_pass = all(r["pass"] for r in results)
    if args.json:
        print(json.dumps({"results": results, "all_pass": all_pass}, indent=2))
    else:
        for r in results:
            if r["pass"]:
                print(f"PASS {r['name']}")
            else:
                print(f"FAIL {r['name']}: {'; '.join(r['detail'])}")
    return 0 if all_pass else 1


# -- parser -----------------------------------------------------------------------


@cache  # parse_args leaves the tree as it was: one build per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-cartan",
        description="Deformation parameters and Galois-image classification "
        "for elliptic curves over Q_p with potentially supersingular reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser(
        "classify",
        help="full image report for y**2 = x**3 + a x + b over Q_p",
    )
    cls.add_argument("--p", type=int, help="the prime (odd, > 3)")
    cls.add_argument("--a", help="coefficient a as an integer or num/den")
    cls.add_argument("--b", help="coefficient b as an integer or num/den")
    cls.add_argument(
        "--precision",
        default=_DEFAULT_PRECISION,
        help="beta certificate cap in pi_e-digits, or an e-multiplier like 4e "
        f"(default {_DEFAULT_PRECISION})",
    )
    cls.add_argument("--k", type=int, help="force the refinement level k")
    cls.add_argument(
        "--k-max",
        type=int,
        default=_DEFAULT_K_MAX,
        help=f"cap on the adaptive level (default {_DEFAULT_K_MAX})",
    )
    cls.add_argument("--json", action="store_true", help="emit JSON")
    cls.add_argument(
        "--batch", metavar="FILE", help="classify 'p a b' lines from FILE"
    )
    cls.set_defaults(func=_cmd_classify)

    bet = sub.add_parser(
        "beta", help="deformation parameters only (precision raises k as needed)"
    )
    bet.add_argument("--p", type=int, required=True)
    bet.add_argument("--a", required=True)
    bet.add_argument("--b", required=True)
    bet.add_argument(
        "--precision",
        help="requested certificate in pi_e-digits (raises k to reach it)",
    )
    bet.add_argument("--k", type=int, help="refinement level (default adaptive)")
    bet.add_argument("--json", action="store_true")
    bet.set_defaults(func=_cmd_beta)

    log = sub.add_parser(
        "logcoeffs", help="exact odd formal-log coefficients d_r over Q"
    )
    log.add_argument("--a", required=True)
    log.add_argument("--b", required=True)
    log.add_argument("--r-max", type=int, required=True)
    log.add_argument(
        "--method",
        choices=("multinomial", "series"),
        default="multinomial",
        help="multinomial sum by its order-3 recurrence (default) or series inversion",
    )
    log.add_argument("--json", action="store_true")
    log.add_argument("--force", action="store_true", help=f"allow r-max > {_SERIES_DEFAULT_CAP}")
    log.set_defaults(func=_cmd_logcoeffs)

    div = sub.add_parser(
        "divpoly", help="g_k coefficient table and root-valuation partition"
    )
    div.add_argument("--p", type=int, required=True)
    div.add_argument("--e", type=int, required=True, choices=(3, 4, 6))
    div.add_argument("--k", type=int, required=True)
    div.add_argument(
        "--v-alpha-inv",
        type=int,
        default=0,
        help="valuation of alpha**-1 (default 0)",
    )
    div.add_argument(
        "--alpha-inf",
        action="store_true",
        help="alpha = infinity: drop the odd-exponent terms (CM shape)",
    )
    div.add_argument("--json", action="store_true")
    div.add_argument("--force", action="store_true", help=f"allow k > {_DIVPOLY_K_CAP}")
    div.set_defaults(func=_cmd_divpoly)

    adb = sub.add_parser(
        "adelic-bound", help="height-based adelic index bounds (floating point)"
    )
    adb.add_argument("--h-j", type=float, required=True, help="stable Faltings-style height input")
    adb.add_argument("--index-p", type=int, help="also evaluate the per-prime bound at p")
    adb.add_argument("--index-n", type=int, help="level exponent n for the per-prime bound")
    adb.add_argument(
        "--mod-p-case",
        choices=("contained", "equal"),
        default="contained",
        help="mod-p image contained in (default) or equal to the normalizer",
    )
    adb.add_argument("--j", help="j-invariant to screen against the excluded value")
    adb.add_argument("--json", action="store_true")
    adb.set_defaults(func=_cmd_adelic_bound)

    exa = sub.add_parser("examples", help="run the frozen worked-example checks")
    exa.add_argument("--list", action="store_true", help="list check names and exit")
    exa.add_argument("--json", action="store_true")
    exa.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
