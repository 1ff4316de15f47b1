"""Byte-identity dump of the package's outputs, stdlib only.

    python3 tools/identity.py [--src DIR [--src DIR]]

Prints one SHA-256 per section per source tree (default: the src/ beside
this script), and with two trees exits 1 when any section differs, after
printing the first line that differs in each differing section, from each tree:

  operators  seeded PadicScalar and EisensteinElement operands (p = 5, 11;
             e = 3, 4, 6; exact zeros, zeros known to a precision, exact and
             finite units, negative valuations) through every public operator
             and view: the value of each result (unit, valuation, precision per
             coordinate), its repr and JSON, or the error's type and message;
             then operands of both types whose coordinates lie at floors 0,
             200 and 400, drawn after all the others
  records    the result records (WeierstrassCurve, ReductionData,
             HodgeParameters, ImageReport, SparsePolynomialL, NewtonPolygon,
             FormalLogPrefix) built from seeded curves, polynomials, points
             and rational models: each one's repr, == and != against an equal
             record built apart and against a different one, whether equal
             records hash alike (or the hash error), its rebuild from its
             fields in order, and for each field whether setting and deleting
             it raise an AttributeError
  cli        every `$ padic-cartan ...` command of README.md, plain and with
             --json, and `examples --json`: exit code, stdout and stderr
  corpus     `classify --batch`, plain and --json, on the first 4 passes
             (PASSES) of perfbench's shallow-batch and deep-batch corpora for
             seeds 1, 2 and 3, built by perfbench/corpus.py (read, not changed)
  logcoeffs  `logcoeffs --r-max 501 --json` by both methods on the first
             PASSES passes of perfbench's exact-logcoeffs corpus for the same
             seeds, then on the edge curves EDGES: a = 0, b = 0, integers,
             and (1/6, 1/6), one denominator shared by a and b
  beta       `beta --json` at --k 0..3 on two seeded curves of each shape
             BETA_SHAPES (e, v(a), v(b)) at each of BETA_PRIMES, integral or
             over one p-free denominator drawn per shape: shapes whose sums
             keep one term, several or none, exact sums at p = 5, beta
             invisible at low k, CM lifts (an exact 0), and shapes that are no
             supersingular e-lift at that p, which are refused; the second
             curve of a shape reads the beta plans the first one built
  surface    the package's sorted __all__, then a non-prime p (9) given to
             classify, beta, classify --batch, divpoly and adelic-bound, then
             classify on a composite p with no factor <= 41 (psi_12) and on a
             coefficient in exponent form (1e5), adelic-bound on a per-prime
             bound past the int to str limit (p = 11, n = 2065), plain and
             --json, and divpoly with e not dividing p + 1 (p = 13, e = 4),
             then `beta --json` at k = 0..3 and `classify` on the p = 5 lifts
             P5_LIFTS, whose divisor d_(p**2) drops no term, and `beta --json`
             on the deep certificates DEEP, (p, p**3, p**2) to precision 124,
             109, 100 and 97 at p = 11, 17, 23 and 29, which read the 30-40
             digit block tables, each with every cache cleared first
             (`padic_cartan._clear_caches`): exit code, stdout and stderr, the
             batch file's path shown as FILE; then each typed log route
             (yasuda_coefficient, series_inversion_logarithm, hasse_invariant,
             odd_coefficient_valuation) on five mixed coefficient pairs: the
             result's type names, or the error's type and message

Both trees run in this process, loaded side by side as in tools/microbench.py;
the corpora are drawn once, with the src/ beside this script.  A tree without
`padic_cartan._clear_caches` is refused at the surface section; compare an
older tree with the tools of its own checkout.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from microbench import _load, cold_clear  # noqa: E402

SEEDS, PASSES = (1, 2, 3), 4
EDGES = ((0, Fraction(-89, 29)), (Fraction(73, 31), 0), (5, -17), (-1331, 121),
         (Fraction(1, 6), Fraction(1, 6)))
FOREIGN = ("1", None, 1.0, [1])
NON_PRIME = (["classify", "--p", "9", "--a", "1", "--b", "1"],
             ["beta", "--p", "9", "--a", "1", "--b", "1"],
             ["divpoly", "--p", "9", "--e", "4", "--k", "1"],
             ["adelic-bound", "--h-j", "0", "--index-p", "9", "--index-n", "1"])
ODD_INPUTS = (["classify", "--p", "318665857834031151167461", "--a", "1", "--b", "1"],
              ["classify", "--p", "11", "--a", "1e5", "--b", "1"],
              ["adelic-bound", "--h-j", "0", "--index-p", "11", "--index-n", "2065"],
              ["adelic-bound", "--h-j", "0", "--index-p", "11", "--index-n", "2065", "--json"],
              ["divpoly", "--p", "13", "--e", "4", "--k", "1"])
P5_LIFTS = tuple(argv for a, b in (("375", "1250"), ("250", "1250"))
                 for argv in [["beta", "--p", "5", "--a", a, "--b", b, "--k", str(k), "--json"]
                              for k in range(4)] + [["classify", "--p", "5", "--a", a, "--b", b]])
# (e, v(a), v(b)), None for an exact 0: v(disc) = min(3 v(a), 2 v(b)) sets e = 3, 4 or 6.
BETA_SHAPES = ((3, 3, 2), (3, 2, 2), (3, 4, 4), (3, 3, 4), (3, None, 2), (4, 1, 2), (4, 3, 5),
               (4, 1, None), (6, 1, 1), (6, 4, 5), (6, None, 5))
BETA_PRIMES = (5, 7, 11, 13, 17, 19, 23)
# The deep certificates of README.md, each run with every cache cleared.
DEEP = tuple(["beta", "--p", str(p), "--a", str(p**3), "--b", str(p**2), "--precision", str(x),
              "--json"] for p, x in ((11, 124), (17, 109), (23, 100), (29, 97)))


def _outcome(fn, show):
    try:
        return show(fn())
    except Exception as exc:  # every error is part of the record
        return f"{type(exc).__name__}: {exc}"


def operator_lines(package):
    """One line per operation on seeded operands of both number types."""
    classifier, eisenstein, padic = (importlib.import_module(f"{package}.{name}")
                                     for name in ("classifier", "eisenstein", "padic"))
    PadicScalar, EisensteinElement = padic.PadicScalar, eisenstein.EisensteinElement
    INFINITY = padic.INFINITY
    rng, lines = random.Random(25), []

    def scalar(p):
        kind, v = rng.random(), rng.randrange(-3, 5)
        if kind < 0.15:
            return PadicScalar.exact_zero(p)
        if kind < 0.3:
            return PadicScalar.zero_to_precision(p, rng.randrange(-3, 8))
        if kind < 0.5:
            return PadicScalar(p, rng.choice([1, -1]) * rng.randrange(1, p**4), v, INFINITY)
        return PadicScalar(p, rng.randrange(1, p**8), v, v + rng.randrange(1, 9))

    def key(c):
        return f"{c.unit},{c.valuation},{c.abs_precision}"

    def show(x):
        if isinstance(x, PadicScalar):
            return f"Q {key(x)} {x!r} {classifier._scalar_json(x)}"
        if isinstance(x, EisensteinElement):
            coords = " ".join(key(c) for c in x.coords)
            return f"L{x.ram_index} {coords} {x!r} {classifier._eisenstein_json(x)}"
        return repr(x)

    def record(label, fn):
        lines.append(f"{label}: {_outcome(fn, show)}")

    def scalar_ops(x, y, c, k, N):
        ops = {
            "x": lambda: x, "x+y": lambda: x + y, "x-y": lambda: x - y,
            "x*y": lambda: x * y, "x/y": lambda: x / y, "-x": lambda: -x,
            "x.inverse": x.inverse, "x+c": lambda: x + c, "c+x": lambda: c + x,
            "x-c": lambda: x - c, "c-x": lambda: c - x, "x*c": lambda: x * c,
            "c*x": lambda: c * x, "x/c": lambda: x / c, "c/x": lambda: c / x,
            "x==y": lambda: x == y, "x!=c": lambda: x != c, "x.shift": lambda: x.shift(k),
            "x.reduce": lambda: x.reduce_abs_precision(N),
            "x.reduce.is": lambda: x.reduce_abs_precision(N) is x,
            "x.congruent": lambda: x.is_congruent(y), "x.congruent.N": lambda: x.is_congruent(y, N),
            "x.floor": x.valuation_floor, "x.residue": x.residue, "x.lift": x.lift_fraction,
            "x.zeros": lambda: (x.is_exact_zero, x.is_precision_zero, x.is_zero_to_precision()),
        }
        ops.update({f"x**{m}": (lambda m=m: x**m) for m in range(-2, 5)})
        for i, other in enumerate(FOREIGN):
            ops.update({f"x+f{i}": lambda o=other: x + o, f"f{i}-x": lambda o=other: o - x,
                        f"x*f{i}": lambda o=other: x * o, f"x/f{i}": lambda o=other: x / o,
                        f"f{i}/x": lambda o=other: o / x, f"x==f{i}": lambda o=other: x == o})
        return ops

    def element_ops(a, b, s, c, k, e):
        ops = {
            "a": lambda: a, "a+b": lambda: a + b, "a-b": lambda: a - b, "a*b": lambda: a * b,
            "a/b": lambda: a / b, "-a": lambda: -a, "a.inverse": a.inverse,
            "a+c": lambda: a + c, "c-a": lambda: c - a, "a*c": lambda: a * c,
            "c*a": lambda: c * a, "a/c": lambda: a / c, "c/a": lambda: c / a,
            "a+s": lambda: a + s, "s-a": lambda: s - a, "a*s": lambda: a * s,
            "s*a": lambda: s * a, "a/s": lambda: a / s, "s/a": lambda: s / a,
            "a==b": lambda: a == b, "a==s": lambda: a == s,
            "s==a": lambda: s == a, "a.pi": lambda: a.mul_pi_power(k),
            "a.truncate": lambda: a.truncate_pi(k + 6),
            "a.scalar": a.as_padic_scalar,
            "a.pi.scalar": lambda: a.mul_pi_power(k).as_padic_scalar(),
            "a.monomial": lambda: EisensteinElement.pi_monomial(s, k, e),
            "a.embedded": lambda: EisensteinElement.from_scalar(s, e),
            "a.v": a.valuation, "a.floor": a.valuation_floor, "a.pi_precision": a.pi_precision,
            "a.congruent": lambda: a.is_congruent(b), "a.congruent.k": lambda: a.is_congruent(b, k),
            "a.zeros": lambda: (a.is_exact_zero, a.is_zero_to_precision()),
        }
        ops.update({f"a**{m}": (lambda m=m: a**m) for m in range(4)})
        for i, other in enumerate(FOREIGN):
            ops.update({f"a+f{i}": lambda o=other: a + o, f"f{i}-a": lambda o=other: o - a,
                        f"a*f{i}": lambda o=other: a * o, f"a/f{i}": lambda o=other: a / o,
                        f"f{i}/a": lambda o=other: o / a, f"a==f{i}": lambda o=other: a == o})
        return ops

    for n in range(600):
        p = rng.choice((5, 11))
        x, y = scalar(p), scalar(p)
        c = rng.choice((0, 3, -p**2, 7 * p**3, Fraction(2, 7), Fraction(5, p),
                        Fraction(-3, 4 * p**2)))
        k, N = rng.randrange(-4, 5), rng.randrange(-2, 9)
        for label, fn in scalar_ops(x, y, c, k, N).items():
            record(f"Q{n} {label}", fn)

    for n in range(400):
        p, e = rng.choice((5, 11)), rng.choice((3, 4, 6))
        a, b = (EisensteinElement(p, e, [scalar(p) for _ in range(e)]) for _ in range(2))
        s = scalar(p)
        c = rng.choice((0, 3, -p**2, Fraction(2, 7), Fraction(5, p)))
        k = rng.randrange(-9, 9)
        for label, fn in element_ops(a, b, s, c, k, e).items():
            record(f"L{n} {label}", fn)

    def far(p, floor):  # a scalar as `scalar` draws it, moved up by floor
        return scalar(p).shift(floor)

    for n in range(200):  # floors far apart: 0, 200 and 400, per coordinate
        p, e = rng.choice((5, 11)), rng.choice((1, 3, 4, 6))
        c = rng.choice((0, 3, -p**2, Fraction(2, 7), Fraction(5, p)))
        k, N = rng.randrange(-9, 9), rng.randrange(-2, 409)
        if e == 1:
            x, y = far(p, rng.choice((0, 200, 400))), far(p, rng.choice((0, 200, 400)))
            ops, label = scalar_ops(x, y, c, k, N), f"QF{n}"
        else:
            a, b = (EisensteinElement(p, e, [far(p, 200 * rng.randrange(3)) for _ in range(e)])
                    for _ in range(2))
            ops, label = element_ops(a, b, far(p, 200 * rng.randrange(3)), c, k, e), f"LF{n}"
        for name, fn in ops.items():
            record(f"{label} {name}", fn)
    return lines


def record_lines(package):
    """repr, equality, hashing, field order and immutability of the result records."""
    classifier, curve, divpoly, formal_log, padic = (
        importlib.import_module(f"{package}.{name}")
        for name in ("classifier", "curve", "divpoly", "formal_log", "padic"))
    WeierstrassCurve = curve.WeierstrassCurve
    fields = {
        "WeierstrassCurve": ("prime", "a", "b"),
        "ReductionData": ("minimal", "defect", "v_min_discriminant", "potential_type",
                          "supersingular"),
        "HodgeParameters": ("prime", "e", "k_used", "certificate_pi_digits", "beta", "v_beta",
                            "epsilon", "alpha", "v_alpha"),
        "ImageReport": ("prime", "defect", "reduction_type", "supersingular",
                        "v_min_discriminant", "canonical_subgroup", "hodge", "n0",
                        "image_label", "index_at_level", "hypotheses_checked"),
        "SparsePolynomialL": ("prime", "ram_index", "coefficients"),
        "NewtonPolygon": ("points", "vertices", "segments", "zero_root_multiplicity", "degree"),
        "FormalLogPrefix": ("coefficients",),
    }
    rng, lines = random.Random(28), []

    def refuses(action):
        try:
            action()
        except Exception as exc:  # FrozenInstanceError is an AttributeError too
            return str(isinstance(exc, AttributeError))
        return "no"

    def record(label, x, same, other, extra=()):
        names = fields[type(x).__name__]
        rebuilt = type(x)(*(getattr(x, name) for name in names))
        frozen = " ".join(f"{name}:{refuses(lambda: setattr(x, name, None))}"
                          f"/{refuses(lambda: delattr(x, name))}" for name in names + extra)
        lines.append(f"{label} {x!r}")
        compared = (f"{x == same} {x != same} {x == other} {x != other} {x == rebuilt} "
                    f"hash {_outcome(lambda: hash(x) == hash(same), str)}")
        lines.append(f"{label} {compared} frozen {frozen} {x!r}")

    def unit(p):
        return rng.randrange(1, p) + p * rng.randrange(p * p)

    for n in range(48):
        p = rng.choice((5, 7, 11, 13, 17, 23))
        va, vb = (rng.choice((None, 0, 1, 2, 3, 4)) for _ in range(2))
        a = Fraction(0 if va is None else unit(p) * p**va, rng.choice((1, 1, 7, p)))
        b = Fraction(0 if vb is None else unit(p) * p**vb, rng.choice((1, 1, 5, p**2)))
        try:
            x = WeierstrassCurve(p, a, b)
        except ValueError as exc:
            lines.append(f"C{n} ({p}, {a}, {b}): {type(exc).__name__}: {exc}")
            continue
        x.reduction, x.j_invariant  # the derived fields of one side only
        same, other = WeierstrassCurve(p, a, b), WeierstrassCurve(p, a, b + p**3)
        record(f"C{n} curve", x, same, other, ("v_a", "v_b", "v_discriminant", "reduction"))
        record(f"C{n} reduction", x.reduction, same.reduction, other.reduction)
        report = classifier.classify(p, a, b)
        record(f"C{n} report", report, classifier.classify(p, a, b, curve=same),
               classifier.classify(p, a, b + p**3))
        if report.hodge is not None:
            again = classifier.classify(p, a, b).hodge
            other = type(again)(*(0 if name == "k_used" else getattr(again, name)
                                  for name in fields["HodgeParameters"]))
            record(f"C{n} hodge", report.hodge, again, other)
    for n, (p, e, v, k) in enumerate([(5, 3, None, 1), (11, 3, 0, 1), (11, 4, 2, 2),
                                      (17, 6, 1, 1), (23, 3, None, 2), (23, 4, 0, 1)]):
        alpha_inv = 0 if v is None else p**v
        poly = divpoly.build_gk(p, e, alpha_inv, k)
        record(f"G{n} poly", poly, divpoly.build_gk(p, e, alpha_inv, k),
               divpoly.build_gk(p, e, alpha_inv, k + 1))
        record(f"G{n} polygon", divpoly.newton_polygon_of(poly),
               divpoly.newton_polygon_of(divpoly.build_gk(p, e, alpha_inv, k)),
               divpoly.newton_polygon_of(divpoly.build_gk(p, e, alpha_inv, k + 1)))
    for n in range(12):
        points = sorted({rng.randrange(12): rng.choice((Fraction(rng.randrange(9), 3), 4))
                         for _ in range(5)}.items())
        polygon = padic.newton_polygon(points)
        record(f"N{n} polygon", polygon, padic.newton_polygon(points),
               padic.newton_polygon([(x, y + 1) for x, y in points]))
        lines.append(f"N{n} {polygon.root_valuations()}")
    for n in range(12):
        a, b = (Fraction(rng.randrange(-99, 100), rng.randrange(1, 40)) for _ in range(2))
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        terms = rng.randrange(1, 30)
        prefix = formal_log.series_inversion_logarithm(a, b, terms)
        record(f"F{n} prefix", prefix, formal_log.series_inversion_logarithm(a, b, terms),
               formal_log.series_inversion_logarithm(a, b, terms + 1))
        lines.append(f"F{n} len {len(prefix)} d {prefix.d(terms)}")
    return lines


def _cli_run(cli, argv, label=None):
    """The command's label (argv by default), exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    label = shlex.join(argv) if label is None else label
    return f"$ {label}\nexit {code}\n{out.getvalue()}stderr:\n{err.getvalue()}"


def cli_lines(package):
    """The README's commands, plain and --json, and `examples --json`."""
    cli = importlib.import_module(f"{package}.cli")
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        commands = [shlex.split(line[len("$ padic-cartan "):])
                    for line in handle if line.startswith("$ padic-cartan ")]
    commands += [argv + ["--json"] for argv in commands if "--json" not in argv]
    commands.append(["examples", "--json"])
    return [_cli_run(cli, argv) for argv in commands]


def corpus_batches():
    """(name, batch text) of PASSES corpus passes per workload and seed."""
    import corpus

    out = []
    for name in ("shallow-batch", "deep-batch"):
        for seed in SEEDS:
            ops, _ = corpus.build(corpus.WORKLOADS[name], seed, passes=PASSES)
            out.append((f"{name}:{seed}", "".join(corpus.batch_line(*op) + "\n" for op in ops)))
    return out


def logcoeff_curves():
    """(a, b) of PASSES exact-logcoeffs corpus passes per seed, then EDGES."""
    import corpus

    curves = []
    for seed in SEEDS:
        curves += corpus.build(corpus.WORKLOADS["exact-logcoeffs"], seed, passes=PASSES)[0]
    return curves + list(EDGES)


def logcoeff_lines(package, curves):
    import corpus

    cli = importlib.import_module(f"{package}.cli")
    return [_cli_run(cli, corpus.logcoeff_argv(a, b, method) + ["--json"])
            for a, b in curves for method in ("multinomial", "series")]


def corpus_lines(package, batches, scratch):
    cli = importlib.import_module(f"{package}.cli")
    lines = []
    for name, text in batches:
        path = os.path.join(scratch, "batch.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for mode in ([], ["--json"]):
            lines.append(_cli_run(cli, ["classify", "--batch", path, *mode], f"{name} {mode}"))
    return lines


def _type_names(result):
    """A result's type name; for a prefix, also its coefficients' type names."""
    if type(result).__name__ == "FormalLogPrefix":
        return "FormalLogPrefix of " + " ".join(
            sorted({type(d).__name__ for d in result.coefficients}))
    return type(result).__name__


def pair_rule_lines(package):
    """Each typed log route on mixed coefficient pairs: its result's types, or its error."""
    eisenstein, formal_log, padic = (importlib.import_module(f"{package}.{name}")
                                     for name in ("eisenstein", "formal_log", "padic"))
    scalar, element = padic.PadicScalar.from_rational, eisenstein.EisensteinElement.from_rational
    q11 = scalar(3, 11, 5)
    pairs = {"Q_11 scalar, L element over 11": (q11, element(2, 11, 3, 5)),
             "Q_11 scalar, Q_13 scalar": (q11, scalar(2, 13, 5)),
             "e = 3 element, e = 4 element": (element(1, 11, 3, 5), element(1, 11, 4, 5)),
             "int, number": (1, q11), "number, int": (q11, 1)}
    routes = {"yasuda_coefficient": lambda A, B: formal_log.yasuda_coefficient(A, B, 7, 4),
              "series_inversion_logarithm":
                  lambda A, B: formal_log.series_inversion_logarithm(A, B, 9),
              "hasse_invariant": formal_log.hasse_invariant,
              "odd_coefficient_valuation":
                  lambda A, B: formal_log.odd_coefficient_valuation(A, B, 0)}
    return [f"{name}({pair}): {_outcome(lambda: route(A, B), _type_names)}"
            for name, route in routes.items() for pair, (A, B) in pairs.items()]


def beta_requests():
    """argv of `beta --json` at --k 0..3 on two curves per prime and shape, drawn once."""
    rng, requests = random.Random(50), []
    for p in BETA_PRIMES:
        for _, va, vb in BETA_SHAPES:
            den = rng.choice((1, 1, 2, 3, 7))
            curves = [[str(0 if v is None else Fraction(
                rng.choice((-1, 1)) * (rng.randrange(1, p) + p * rng.randrange(p * p)) * p**v,
                den)) for v in (va, vb)] for _ in range(2)]
            requests += [["beta", "--p", str(p), f"--a={a}", f"--b={b}", "--k", str(k), "--json"]
                         for k in range(4) for a, b in curves]
    return requests


def beta_lines(package, requests):
    cli = importlib.import_module(f"{package}.cli")
    return [_cli_run(cli, argv) for argv in requests]


def deep_lines(package):
    """`beta` on each of DEEP, every cache cleared before each."""
    cli = importlib.import_module(f"{package}.cli")
    clear, lines = cold_clear(importlib.import_module(package)), []
    for argv in DEEP:
        clear()
        lines.append(_cli_run(cli, argv))
    return lines


def surface_lines(package, scratch):
    """The sorted exports, each command's refusal of a non-prime p, the ODD_INPUTS,
    P5_LIFTS and DEEP, then the pair rule."""
    cli = importlib.import_module(f"{package}.cli")
    path = os.path.join(scratch, "non-prime.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("9 1 1\n")
    batch = _cli_run(cli, ["classify", "--batch", path], "classify --batch FILE")
    return (sorted(importlib.import_module(package).__all__)
            + [_cli_run(cli, argv) for argv in NON_PRIME] + [batch.replace(path, "FILE")]
            + [_cli_run(cli, argv) for argv in ODD_INPUTS + P5_LIFTS] + deep_lines(package)
            + pair_rule_lines(package))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append",
                        help="package source tree; twice to compare two trees")
    args = parser.parse_args(argv)
    trees = args.src or [os.path.join(ROOT, "src")]
    if len(trees) > 2:
        parser.error("--src is given at most twice")
    batches, curves, requests = corpus_batches(), logcoeff_curves(), beta_requests()
    packages = [_load(src, f"padic_cartan_{side}") for side, src in zip("ab", trees)]
    differ = False
    with tempfile.TemporaryDirectory() as scratch:
        for section, dump in (("operators", operator_lines), ("records", record_lines),
                              ("cli", cli_lines),
                              ("corpus", lambda pkg: corpus_lines(pkg, batches, scratch)),
                              ("logcoeffs", lambda pkg: logcoeff_lines(pkg, curves)),
                              ("beta", lambda pkg: beta_lines(pkg, requests)),
                              ("surface", lambda pkg: surface_lines(pkg, scratch))):
            texts = ["\n".join(dump(package)) for package in packages]
            for src, text in zip(trees, texts):
                data = text.encode()
                print(f"{section} {hashlib.sha256(data).hexdigest()} {len(data)} B {src}")
            if len(texts) == 2 and texts[0] != texts[1]:
                differ = True
                a, b = (text.split("\n") for text in texts)
                first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                             min(len(a), len(b)))
                for src, lines in zip(trees, (a, b)):
                    print(f"  first difference, line {first + 1} of {src}: "
                          f"{lines[first] if first < len(lines) else '(no such line)'}")
    if differ:
        print("outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
