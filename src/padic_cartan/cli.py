"""Command-line front end.

Subcommands: classify (full image report for one curve or a batch file),
beta (deformation parameters only, with request-style precision), logcoeffs
(exact rational formal-log coefficients over Q), divpoly (g_k tables and
root-valuation partitions), adelic-bound (the floating-point height bounds),
and examples (self-check against the frozen worked examples).

Exit status: 0 for any completed run, including out_of_scope classifications
and the p-adic gates; 1 when an `examples` regression check fails; 2 for
input errors (bad prime, singular model, malformed rationals, oversize
requests without --force).

JSON output uses a canonical field order and no floats outside adelic-bound,
so every payload re-serializes byte-identically.  The text renderer walks
the same payload, so both modes report identical fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from operator import attrgetter

from .classifier import (
    _eisenstein_json,
    _hodge_dict,
    adelic_bound,
    classify,
    per_prime_index_bound,
)
from .curve import WeierstrassCurve, good_model_over_L
from .divpoly import build_gk, format_table, root_valuation_partition
from .eisenstein import EisensteinElement
from .errors import PadicCartanError, UnsupportedPrimeError
from .formal_log import (
    series_inversion_logarithm,
    yasuda_coefficient,
    yasuda_coefficient_exact,
)
from .padic import INFINITY, PadicScalar
from .volkov import beta_from_logarithm, hodge_parameters, v_alpha_table

_PRIME_MESSAGE = "p must be an odd prime > 3"
_ENV_PRECISION = "PADIC_CARTAN_PRECISION"
_LOGCOEFF_CAP = 501
_DIVPOLY_K_CAP = 3
# Adaptive-level cap of `classify`.  The library's own default is 3; the CLI
# keeps 2, which the benchmark corpora assume (with 3, p=11 and p=17 lifts
# of v(beta) = 7/3 move to k=3).
_DEFAULT_K_MAX = 2


class _InputError(Exception):
    """Anything that should terminate the process with exit status 2."""


def _parse_rational(text, label: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"{label} must be a rational like 7 or -7/4, got {text!r}") from exc


def _resolve_precision(flag_value, e: int) -> int:
    """pi_e-digit precision from the flag, the environment, or the default.

    Accepts a plain digit count ("12") or an e-multiplier ("4e").  The
    default is 4e digits, enough to report the k<=3 certificates in full.
    """
    text = flag_value
    if text is None:
        text = os.environ.get(_ENV_PRECISION)
    if text is None:
        text = "4e"
    text = str(text).strip().lower()
    try:
        if text.endswith("e"):
            return int(text[:-1] or 1) * e
        return int(text)
    except ValueError:
        raise _InputError(
            f"precision must be a digit count or an e-multiplier like 4e, got {text!r}"
        ) from None


def _build_curve(p, a_text, b_text) -> WeierstrassCurve:
    a = _parse_rational(a_text, "a")
    b = _parse_rational(b_text, "b")
    try:
        return WeierstrassCurve(p, a, b)
    except UnsupportedPrimeError as exc:
        raise _InputError(_PRIME_MESSAGE) from exc
    except PadicCartanError as exc:
        raise _InputError(str(exc)) from exc


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
        elif isinstance(value, list):
            print(f"{pad}{key}: {json.dumps(value)}")
        else:
            print(f"{pad}{key}: {_fmt_leaf(value)}")


# -- classify -----------------------------------------------------------------


def _classify_one(p, a_text, b_text, args) -> dict:
    curve = _build_curve(p, a_text, b_text)
    precision = _resolve_precision(args.precision, curve.reduction.defect)
    try:
        report = classify(
            p, curve.a, curve.b, precision=precision, k=args.k, k_cap=args.k_max
        )
    except PadicCartanError as exc:
        raise _InputError(str(exc)) from exc
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    return report.to_dict()


def _cmd_classify(args) -> int:
    if args.batch is not None:
        return _classify_batch(args)
    if args.p is None or args.a is None or args.b is None:
        raise _InputError("classify needs --p, --a and --b (or --batch FILE)")
    payload = _classify_one(args.p, args.a, args.b, args)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_text(payload)
    return 0


def _classify_batch(args) -> int:
    try:
        with open(args.batch, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _InputError(f"cannot read batch file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise _InputError(
                f"{args.batch}:{lineno}: expected 'p a b', got {raw.strip()!r}"
            )
        try:
            p = int(fields[0])
        except ValueError:
            raise _InputError(f"{args.batch}:{lineno}: p must be an integer") from None
        try:
            payload = _classify_one(p, fields[1], fields[2], args)
        except _InputError as exc:
            raise _InputError(f"{args.batch}:{lineno}: {exc}") from None
        if args.json:
            print(json.dumps(payload, separators=(",", ":")))
        else:
            print(
                "p={p} a={a} b={b} label={label} n0={n0} index={index}".format(
                    p=p,
                    a=fields[1],
                    b=fields[2],
                    label=payload["image_label"],
                    n0=_fmt_leaf(payload["n0"]),
                    index=_fmt_leaf(payload["index_at_level"]),
                )
            )
    return 0


# -- beta ---------------------------------------------------------------------


def _cmd_beta(args) -> int:
    curve = _build_curve(args.p, args.a, args.b)
    e = curve.reduction.defect
    precision = None
    if args.precision is not None:
        precision = _resolve_precision(args.precision, e)
    try:
        hodge = hodge_parameters(curve, k=args.k, precision=precision)
    except PadicCartanError as exc:
        raise _InputError(str(exc)) from exc
    payload = {"prime": curve.prime, "defect": e}
    payload.update(_hodge_dict(hodge))
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_text(payload)
    return 0


# -- logcoeffs ------------------------------------------------------------------


def _cmd_logcoeffs(args) -> int:
    a = _parse_rational(args.a, "a")
    b = _parse_rational(args.b, "b")
    r_max = args.r_max
    if r_max < 1:
        raise _InputError("r-max must be >= 1")
    if r_max > _LOGCOEFF_CAP and not args.force:
        raise _InputError(
            f"r-max {r_max} > {_LOGCOEFF_CAP} is slow; pass --force to allow it"
        )
    if 4 * a**3 + 27 * b**2 == 0:
        raise _InputError(f"discriminant vanishes for a={a}, b={b}")
    if args.method == "series":
        prefix = series_inversion_logarithm(a, b, r_max, force=True)
        pairs = [(r, prefix.coefficients[r]) for r in range(1, r_max + 1, 2)]
    else:
        pairs = [(r, yasuda_coefficient_exact(a, b, r)) for r in range(1, r_max + 1, 2)]
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


def _format_valuation(v) -> str:
    return "inf" if v == INFINITY else str(v)


def _partition_lines(partition) -> list:
    lines = []
    for valuation, count in partition:
        noun = "root" if count == 1 else "roots"
        lines.append(f"{count} {noun} of valuation {_format_valuation(valuation)}")
    return lines


def _cmd_divpoly(args) -> int:
    p, e, k = args.p, args.e, args.k
    if k > _DIVPOLY_K_CAP and not args.force:
        raise _InputError(
            f"k {k} > {_DIVPOLY_K_CAP} gives degree p**{2 * k}; pass --force to allow it"
        )
    if args.alpha_inf:
        alpha_inv = 0  # build_gk reads the int 0 as alpha**-1 = 0 exactly
        v_label = None
    else:
        v = args.v_alpha_inv
        if v < 0:
            raise _InputError("v-alpha-inv must be >= 0 (twist-normalize first)")
        alpha_inv = p**v
        v_label = v
    try:
        poly = build_gk(p, e, alpha_inv, k)
    except UnsupportedPrimeError as exc:
        raise _InputError(_PRIME_MESSAGE) from exc
    except (PadicCartanError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    partition = root_valuation_partition(poly)
    if args.json:
        payload = {
            "p": p,
            "e": e,
            "k": k,
            "v_alpha_inv": v_label,
            "alpha_infinite": args.alpha_inf,
            "degree": poly.degree,
            "coefficients": [
                [n, _eisenstein_json(poly.coefficients[n])] for n in poly.support
            ],
            "partition": [
                [_format_valuation(valuation), count] for valuation, count in partition
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
    try:
        bound = adelic_bound(args.h_j)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    payload = {"h_j": args.h_j, "bound_a": bound.bound_a, "bound_b": bound.bound_b}
    if (args.index_p is None) != (args.index_n is None):
        raise _InputError("--index-p and --index-n must be given together")
    if args.index_p is not None:
        j = None
        if args.j is not None:
            j = _parse_rational(args.j, "j")
        try:
            per_prime = per_prime_index_bound(
                args.index_p, args.index_n, mod_p_case=args.mod_p_case, j_invariant=j
            )
        except UnsupportedPrimeError as exc:
            raise _InputError(_PRIME_MESSAGE) from exc
        except (PadicCartanError, ValueError) as exc:
            raise _InputError(str(exc)) from exc
        payload["per_prime"] = {
            "p": args.index_p,
            "n": args.index_n,
            "mod_p_case": args.mod_p_case,
            "bound": per_prime,
        }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_text(payload)
    return 0


# -- examples ---------------------------------------------------------------------


def _congruent_scalar_times_pi(got, lift, pi_power, p, e, prec_p, pi_digits):
    """Is `got` congruent to lift * pi**pi_power mod pi**pi_digits?"""
    scalar = PadicScalar.from_rational(Fraction(lift), p, prec_p)
    want = EisensteinElement.pi_monomial(scalar, pi_power, e)
    return got.is_congruent(want, pi_digits)


def _check_example1_log_coefficients() -> list:
    p = 11
    model = good_model_over_L(WeierstrassCurve(p, p**3, p**2), 3)
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
    p = 11
    model = good_model_over_L(WeierstrassCurve(p, p**3, p**2), 3)
    beta = beta_from_logarithm(model, 1)
    problems = []
    if not beta.is_zero_to_precision():
        problems.append(f"beta at k=1 should vanish mod pi^4, got {beta!r}")
    if beta.pi_precision() != 4:
        problems.append(f"k=1 window should be pi^4, got pi^{beta.pi_precision()}")
    return problems


def _check_example1_beta_k2_value() -> list:
    p = 11
    hodge = hodge_parameters(WeierstrassCurve(p, p**3, p**2), k=2)
    problems = []
    if not _congruent_scalar_times_pi(hodge.beta, 2 * p, 1, p, 3, 2, 7):
        problems.append(f"beta != 2*p*pi mod pi^7: {hodge.beta!r}")
    if hodge.v_beta != Fraction(4, 3):
        problems.append(f"v(beta) = {hodge.v_beta} != 4/3")
    if hodge.epsilon != 1:
        problems.append(f"epsilon = {hodge.epsilon} != +1")
    if hodge.alpha.residue() != 5:
        problems.append(f"alpha residue = {hodge.alpha.residue()} != 5")
    if hodge.v_alpha != 0:
        problems.append(f"v(alpha) = {hodge.v_alpha} != 0")
    return problems


# (check name, p, a, b, forced k, expected report fields); a dotted field is
# read off the report's hodge parameters.
_CLASSIFY_EXAMPLES = (
    ("example1_classification", 11, 11**3, 11**2, None, (
        ("image_label", "preimage_of_index3_subgroup_level_1"), ("n0", 1),
        ("index_at_level", 3), ("defect", 3), ("canonical_subgroup", False))),
    ("example2_classification", 23, 23**4, 23**2, 1, (
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
    prefix = series_inversion_logarithm(a, b, 41)
    problems = []
    for r in range(1, 42, 2):
        direct = yasuda_coefficient_exact(a, b, r)
        if direct != prefix.coefficients[r]:
            problems.append(f"d_{r}: multinomial {direct} != series {prefix.coefficients[r]}")
    return problems


def _check_valpha_table_vs_alpha() -> list:
    problems = []
    for p, a, b, k in ((11, 11**3, 11**2, 2), (23, 23**4, 23**2, 1)):
        curve = WeierstrassCurve(p, a, b)
        red = curve.reduction
        hodge = hodge_parameters(curve, k=k)
        table = v_alpha_table(
            red.defect,
            red.v_min_discriminant,
            curve.v_j,
            curve.v_j_minus_1728,
        )
        if hodge.v_alpha != table:
            problems.append(
                f"p={p}: v(alpha) from beta {hodge.v_alpha} != table {table}"
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
        problems = check()
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
        help="beta certificate cap in pi_e-digits, or an e-multiplier like 4e "
        f"(default 4e; env {_ENV_PRECISION} overrides)",
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
        help="closed multinomial sum (default) or series inversion",
    )
    log.add_argument("--json", action="store_true")
    log.add_argument("--force", action="store_true", help="allow r-max > 501")
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
    div.add_argument("--force", action="store_true", help="allow k > 3")
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
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
