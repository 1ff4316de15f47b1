"""Micro-layer timings for the L and Q_p arithmetic and the exact log routes, stdlib only.

    python3 tools/microbench.py [--src DIR [--src DIR]]

Prints one JSON object of median microseconds per operation, each key
followed by `<key>.iqr`, the interquartile range of the same timed loops:

  eisenstein.mul.eE, eisenstein.inverse.eE   e = 3, 4, 6; p = 11, every
      coordinate a random 12-digit unit at valuation 0 (abs_precision 12)
  eisenstein.pow.eE                          the same shape with 7-digit units,
      raised to 11**5 // 6, an exponent the p = 11, k = 2 Yasuda sums reach
  eisenstein.pow.monomial.eE                 a 7-digit unit times pi**i, i < e,
      raised to 11**5 // 6: the shape of A_L and B_L on every good model
  padic.mul.dD, padic.add.dD                 D = 4, 32, 256 digits; p = 11,
      random D-digit units at valuation 0
  padic.factorial_unit.nK, padic.multinomial_padic.nK
      K = 7, 80: n! and C(N; m+2n, m, n), 2m + 3n = N, to 4 digits, p = 11,
      n and N random in [11**K, 2 * 11**K)
  padic.factorial_unit.n80.d34
      n! to 34 digits, p = 11, n random in [11**80, 2 * 11**80): the digits
      of a deep certificate's multinomials
  formal_log.series.r501, formal_log.exact.r501
      d_1..d_501 of one seeded rational curve (denominators 23 and 37) by
      series_inversion_logarithm and by yasuda_coefficient_exact per odd r;
      one op is the whole prefix
  formal_log.multinomial.r501
      the same prefix by the route of `logcoeffs --method multinomial`:
      recurrence_logarithm
  formal_log.series.r501.shared
      formal_log.series.r501 on (1/6, 1/6), where a and b share their
      denominator, so the series route's grading 6**(s//2 + s//3) overshoots
      most the 6**(s//2) that the weight-s coefficients need
  formal_log.series.r501.b0
      formal_log.series.r501 on (-83/23, 0): with b = 0 the route over Q takes
      z from its closed form Cat_k a**k
  formal_log.yasuda.p4, formal_log.yasuda.p5
      the two sums of a deep-batch level-2 beta: d_r at r = 17**4 to pi**4 and
      r = 17**5 to pi**2 on the good model over L (e = 3) of seeded p = 17
      curves a = u * 17**3, b = u' * 17**2; the sum plans are cached after
      the first loop
  formal_log.yasuda.p5.cold
      formal_log.yasuda.p5 with every cache cleared before each sum
      (`cold_clear`): the cost of a single curve
  volkov.beta_from_logarithm.p17.k2
      beta_from_logarithm on the same models at level 2, a deep-batch shape
      (both sums keep one term): the shape's beta plan rescaled by two modular
      powers; the plans are cached after the first loop
  volkov.beta_from_logarithm.p17.k2.cold
      the same with every cache cleared before each call (`cold_clear`): a
      shape seen for the first time
  volkov.hodge_parameters.lift, volkov.hodge_parameters.unit_den
      hodge_parameters(WeierstrassCurve(11, a, b)) at the default level (k = 2)
      on seeded e = 3 lifts a = u * 11**3, b = u' * 11**2 with 3-digit units,
      integral and with both coefficients divided by integers in [2, 100)
      prime to 11; curve built per op, sum plans cached after the first loop
  volkov.hodge_parameters.P40.cold, .P70.cold, .P100.cold
      hodge_parameters(WeierstrassCurve(11, 11**3, 11**2), precision=P), levels
      k = 13, 23 and 33: deep certificates, which no perfbench workload reaches;
      curve built and every cache cleared per op
  volkov.hodge_parameters.p17.P70.cold, volkov.hodge_parameters.p23.P70.cold
      the same at precision 70 (k = 23) on WeierstrassCurve(17, 2 * 17**3,
      3 * 17**2) and WeierstrassCurve(23, 23**3, 23**2), also e = 3
  volkov.hodge_parameters.p29.P97.cold
      the same at precision 97 (k = 32) on WeierstrassCurve(29, 29**3, 29**2):
      the deepest certificate the work budget answers at p = 29
  formal_log.yasuda.units.N3000
      d_r at r = 6001 to p**8 over Q_11 of the exact units A = 3, B = 5, with
      every cache cleared per op: a sum that keeps every term, walked mod
      p**top on A and B cut to the working precision, as every sum of more
      than one term is
  padic.inverse.dD                           D = 4, 32, 256 digits; p = 11,
      PadicScalar.inverse() of random D-digit units at valuation 0
  volkov.hodge_parameters.cm
      hodge_parameters(WeierstrassCurve(11, a, b)) at the default level on
      seeded CM lifts, one coefficient exactly 0 (v(a), v(b)) = (-, 2),
      (-, 1), (1, -), (3, -), 3-digit units: beta = 0, the path of the
      shallow-batch median op; curve built per op, plans cached
  eisenstein.add.eE                          e = 3, 4, 6; p = 11, x + y with
      every coordinate a random 12-digit unit at a random valuation in
      [0, 12): coordinate floors that lie apart, each index summed over its
      own least floor
  eisenstein.add.spread.e3                   p = 11, x + y with 12-digit units
      at coordinate floors 0, 200 and 400: floors far apart
  curve.reduction
      WeierstrassCurve(p, a, b) built, then .reduction, v_j and v_j_minus_1728
      read, on one seeded curve of each of the 36 patterns of perfbench's
      shallow-batch corpus, drawn by perfbench/corpus.py (read, not changed)
  classifier.classify.cm, classifier.classify.ordinary
      classify(p, a, b) at its defaults on Fraction inputs, as the CLI passes
      them: the volkov.hodge_parameters.cm curves (beta = 0, one Yasuda pair
      at k = 1), and seeded p = 13 curves of the shallow-batch ordinary shapes,
      which leave at the ordinary gate before any L arithmetic
  eisenstein.mul.scalar.e3                   p = 11, x * s and x * q for x as in
      eisenstein.mul.e3, s a 12-digit PadicScalar unit and q a Fraction of a
      6-digit unit over an integer in [2, 100) prime to 11; one op is both
  eisenstein.inverse.monomial.eE             e = 3, 4, 6; p = 11, inverse() of
      the log route's divisor d_(p**2k): a 4-digit unit at valuation -2 in
      coordinate 0 and zeros known to p**1 in the others
  classifier.to_dict.lift
      ImageReport.to_dict() of classify(p, a, b) on seeded curves of the eight
      p = 11 log-route patterns of shallow-batch (the first in corpus.SHALLOW),
      three of each; the reports are built before timing
  padic.div.dD                               D = 4, 32, 256 digits; p = 11,
      x / y of random D-digit units at valuation 0
  eisenstein.div.eE                          e = 3, 4, 6; p = 11, x / y in the
      log route's shape: x with a random 4-digit unit at valuation 0 in every
      coordinate, y as in eisenstein.inverse.monomial.eE (one nonzero unit)
  cli.import.cold
      a fresh interpreter (this one's executable, site and environment) that
      puts the tree on sys.path and runs `import padic_cartan.cli`, timed to
      its exit; without a bytecode cache (PYTHONDONTWRITEBYTECODE) that
      includes compiling the package
  cli.ready.cold
      the same, running `main(["classify", "--batch", os.devnull, "--json"])`:
      the work of perfbench's setup child before its "ready"

Each median and IQR is taken over REPEATS = 15 timed loops (time.perf_counter)
of the same 200 seeded operand pairs (one curve for the formal_log .r501 keys
and the P keys, CURVES curves for formal_log.yasuda and the other
volkov.hodge_parameters keys, SPAWNS interpreters for the cli keys);
EisensteinElement inverse() and pow run on the first 20 of them, and so do
factorial_unit and multinomial_padic.
volkov.hodge_parameters draws its operands after the other layers, and
padic.inverse and volkov.hodge_parameters.cm after it, and eisenstein.add
after all of them, and eisenstein.add.spread after it, so each layer times
the operands it had before the later ones were added; curve.reduction and
the classifier keys draw theirs after all of them, then eisenstein.mul.scalar,
then eisenstein.inverse.monomial, then classifier.to_dict, then padic.div and
eisenstein.div, and padic.factorial_unit.n80.d34 last; the .P40.cold, .p17,
.p23, .p29, .multinomial.r501, .series.r501.shared, .series.r501.b0 and
.units.N3000 keys, the volkov.beta_from_logarithm keys (formal_log.yasuda's
models) and the cli keys draw nothing.
Every .cold key first calls the tree's `padic_cartan._clear_caches`, found
by `cold_clear`, which empties every cache that keeps state across calls.  A
tree without it is refused, so no .cold key times a warm cache; time an older
tree with the tools of its own checkout.
--src selects the package source, so one checkout can time another
(default: the src/ beside this script).  Given twice, both trees are loaded
side by side and each key is timed on both in alternating rounds (A B B A
A B ...), so drift in the machine's speed falls on both alike; every key then
holds [A, B], the medians (and `<key>.iqr` the IQRs) in --src order.
"""

import argparse
import importlib
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench/corpus.py draws the shallow-batch curves, importing the package beside it.
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
PRIME, PAIRS, INVERSES, REPEATS, CURVES, SPAWNS = 11, 200, 20, 15, 5, 3
# Run by a fresh interpreter per op, with argv[1] the source tree.
COLD = {
    "cli.import.cold": "import padic_cartan.cli",
    "cli.ready.cold": "import os; from padic_cartan.cli import main; "
                      "main(['classify', '--batch', os.devnull, '--json'])",
}


def _load(src, name):
    """Import the package under src/padic_cartan as the package `name`."""
    root = os.path.join(src, "padic_cartan")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return name


def cold_clear(package):
    """The function a .cold key calls first: the package's `_clear_caches`, which empties
    every cache that keeps state across calls.  A tree without it raises, so that no .cold
    key times a warm cache."""
    clear = getattr(package, "_clear_caches", None)
    if clear is None:
        raise RuntimeError(f"{package.__name__} has no _clear_caches")
    return clear


def cases(package):
    """(key, op, operands) for every key, in timing order, on one package tree."""
    import corpus

    classifier, curve, eisenstein, formal_log, padic, volkov = (
        importlib.import_module(f"{package}.{name}")
        for name in ("classifier", "curve", "eisenstein", "formal_log", "padic", "volkov"))
    WeierstrassCurve, good_model_over_L = curve.WeierstrassCurve, curve.good_model_over_L
    EisensteinElement, PadicScalar = eisenstein.EisensteinElement, padic.PadicScalar
    series_inversion_logarithm = formal_log.series_inversion_logarithm
    yasuda_coefficient = formal_log.yasuda_coefficient
    yasuda_coefficient_exact = formal_log.yasuda_coefficient_exact
    factorial_unit, multinomial_padic = padic.factorial_unit, padic.multinomial_padic
    hodge_parameters = volkov.hodge_parameters
    clear, out = cold_clear(sys.modules[package]), []

    def add_case(name, fn, operands):
        out.append((name, fn, operands))

    rng = random.Random(8)
    extra = random.Random(14)  # the later layers' draws leave rng's sequence as it was

    def scalar(digits, source=rng):
        while True:
            unit = source.randrange(1, PRIME**digits)
            if unit % PRIME:
                return PadicScalar(PRIME, unit, 0, digits)

    def element(e, digits=12):
        return EisensteinElement(PRIME, e, [scalar(digits) for _ in range(e)])

    for e in (3, 4, 6):
        pairs = [(element(e), element(e)) for _ in range(PAIRS)]
        add_case(f"eisenstein.mul.e{e}", lambda a, b: a * b, pairs)
        singles = [(a,) for a, _ in pairs[:INVERSES]]
        add_case(f"eisenstein.inverse.e{e}", lambda a: a.inverse(), singles)
        units = [(element(e, 7),) for _ in range(INVERSES)]
        add_case(f"eisenstein.pow.e{e}", lambda a: a ** (PRIME**5 // 6), units)
        monomials = [(EisensteinElement.pi_monomial(scalar(7, extra), extra.randrange(e), e),)
                     for _ in range(INVERSES)]
        add_case(f"eisenstein.pow.monomial.e{e}", lambda a: a ** (PRIME**5 // 6), monomials)
    for digits in (4, 32, 256):
        pairs = [(scalar(digits), scalar(digits)) for _ in range(PAIRS)]
        add_case(f"padic.mul.d{digits}", lambda a, b: a * b, pairs)
        add_case(f"padic.add.d{digits}", lambda a, b: a + b, pairs)
    for k in (7, 80):
        ns = [(extra.randrange(PRIME**k, 2 * PRIME**k),) for _ in range(INVERSES)]
        add_case(f"padic.factorial_unit.n{k}", lambda n: factorial_unit(n, PRIME, 4), ns)
        shapes = []
        for (N,) in ns:
            n = extra.randrange(N // 3)
            m = (N - 3 * n) // 2
            shapes.append((2 * m + 3 * n, (m + 2 * n, m, n)))
        add_case(f"padic.multinomial_padic.n{k}",
                lambda N, parts: multinomial_padic(N, parts, PRIME, 4), shapes)
    curve = [(Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), 23),
              Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), 37))]
    add_case("formal_log.series.r501",
            lambda a, b: series_inversion_logarithm(a, b, 501, force=True), curve)
    add_case("formal_log.exact.r501",
            lambda a, b: [yasuda_coefficient_exact(a, b, r) for r in range(1, 502, 2)], curve)
    add_case("formal_log.multinomial.r501",
            lambda a, b: formal_log.recurrence_logarithm(a, b, 501), curve)
    add_case("formal_log.series.r501.shared",
            lambda a, b: series_inversion_logarithm(a, b, 501, force=True),
            [(Fraction(1, 6), Fraction(1, 6))])
    add_case("formal_log.series.r501.b0",
            lambda a, b: series_inversion_logarithm(a, b, 501, force=True),
            [(Fraction(-83, 23), Fraction(0))])
    models = []
    while len(models) < CURVES:
        a, b = rng.randrange(1, 17) * 17**3, rng.randrange(1, 17) * 17**2
        if (4 * a**3 + 27 * b**2) % 17**5:  # v(disc) = 4: e = 3
            models.append(tuple(good_model_over_L(WeierstrassCurve(17, a, b), 3)))
    add_case("formal_log.yasuda.p4", lambda a, b: yasuda_coefficient(a, b, 17**4, 4), models)
    add_case("formal_log.yasuda.p5", lambda a, b: yasuda_coefficient(a, b, 17**5, 2), models)

    def cold(a, b):
        clear()
        return yasuda_coefficient(a, b, 17**5, 2)

    add_case("formal_log.yasuda.p5.cold", cold, models)
    beta = volkov.beta_from_logarithm
    add_case("volkov.beta_from_logarithm.p17.k2", lambda a, b: beta((a, b), 2), models)

    def beta_cold(a, b):
        clear()
        return beta((a, b), 2)

    add_case("volkov.beta_from_logarithm.p17.k2.cold", beta_cold, models)

    def prime_to_p(low, high):
        while True:
            n = extra.randrange(low, high)
            if n % PRIME:
                return n

    lifts = [(prime_to_p(1, PRIME**3) * PRIME**3, prime_to_p(1, PRIME**3) * PRIME**2)
             for _ in range(CURVES)]
    unit_dens = [(Fraction(a, prime_to_p(2, 100)), Fraction(b, prime_to_p(2, 100)))
                 for a, b in lifts]
    for name, curves in (("lift", lifts), ("unit_den", unit_dens)):
        add_case(f"volkov.hodge_parameters.{name}",
                lambda a, b: hodge_parameters(WeierstrassCurve(PRIME, a, b)), curves)

    def deep_cold(precision, p=PRIME, a=PRIME**3, b=PRIME**2):
        clear()
        return hodge_parameters(WeierstrassCurve(p, a, b), precision=precision)

    for precision in (70, 100):
        add_case(f"volkov.hodge_parameters.P{precision}.cold", deep_cold, [(precision,)])
    for digits in (4, 32, 256):
        singles = [(scalar(digits, extra),) for _ in range(PAIRS)]
        add_case(f"padic.inverse.d{digits}", lambda a: a.inverse(), singles)
    shapes = [(None, 2), (None, 1), (1, None), (3, None)]  # shallow-batch's CM lifts
    cm = [tuple(0 if v is None else prime_to_p(1, PRIME**3) * PRIME**v for v in shape)
          for shape in (shapes * CURVES)[:CURVES]]
    add_case("volkov.hodge_parameters.cm",
            lambda a, b: hodge_parameters(WeierstrassCurve(PRIME, a, b)), cm)

    def spread(e):
        return EisensteinElement(PRIME, e, [scalar(12).shift(rng.randrange(12)) for _ in range(e)])

    for e in (3, 4, 6):
        pairs = [(spread(e), spread(e)) for _ in range(PAIRS)]
        add_case(f"eisenstein.add.e{e}", lambda a, b: a + b, pairs)

    def far_apart():
        return EisensteinElement(PRIME, 3, [scalar(12).shift(f) for f in (0, 200, 400)])

    pairs = [(far_apart(), far_apart()) for _ in range(PAIRS)]
    add_case("eisenstein.add.spread.e3", lambda a, b: a + b, pairs)

    def shallow_curves(patterns):
        """(p, a, b) of one curve per pattern of the shallow-batch corpus, drawn by it."""
        return [(pattern.p, *corpus._draw(extra, pattern)) for pattern in patterns]

    shallow = shallow_curves(corpus.SHALLOW)

    def reduction(p, a, b):
        c = WeierstrassCurve(p, a, b)
        return c.reduction, c.v_j, c.v_j_minus_1728

    add_case("curve.reduction", reduction, shallow)
    classify = classifier.classify
    add_case("classifier.classify.cm", lambda a, b: classify(PRIME, a, b),
             [(Fraction(a), Fraction(b)) for a, b in cm])
    ordinary = shallow_curves((corpus.SHALLOW[15:19] * CURVES)[:CURVES])  # the ordinary gate
    add_case("classifier.classify.ordinary", classify, ordinary)
    scaled = [(EisensteinElement(PRIME, 3, [scalar(12, extra) for _ in range(3)]),
               scalar(12, extra), Fraction(prime_to_p(1, PRIME**6), prime_to_p(2, 100)))
              for _ in range(PAIRS)]
    add_case("eisenstein.mul.scalar.e3", lambda x, s, q: (x * s, x * q), scaled)
    for e in (3, 4, 6):
        divisors = [(EisensteinElement(PRIME, e, [scalar(4, extra).shift(-2)] + [
            PadicScalar.zero_to_precision(PRIME, 1)] * (e - 1)),) for _ in range(PAIRS)]
        add_case(f"eisenstein.inverse.monomial.e{e}", lambda a: a.inverse(), divisors)
    reports = [(classify(*curve),) for curve in shallow_curves(corpus.SHALLOW[:8] * 3)]
    add_case("classifier.to_dict.lift", lambda report: report.to_dict(), reports)
    for digits in (4, 32, 256):
        pairs = [(scalar(digits, extra), scalar(digits, extra)) for _ in range(PAIRS)]
        add_case(f"padic.div.d{digits}", lambda a, b: a / b, pairs)
    for e in (3, 4, 6):
        quotients = [(EisensteinElement(PRIME, e, [scalar(4, extra) for _ in range(e)]),
                      EisensteinElement(PRIME, e, [scalar(4, extra).shift(-2)] + [
                          PadicScalar.zero_to_precision(PRIME, 1)] * (e - 1)))
                     for _ in range(PAIRS)]
        add_case(f"eisenstein.div.e{e}", lambda a, b: a / b, quotients)
    ns = [(extra.randrange(PRIME**80, 2 * PRIME**80),) for _ in range(INVERSES)]
    add_case("padic.factorial_unit.n80.d34", lambda n: factorial_unit(n, PRIME, 34), ns)
    add_case("volkov.hodge_parameters.P40.cold", deep_cold, [(40,)])
    for p, a, b in ((17, 2 * 17**3, 3 * 17**2), (23, 23**3, 23**2)):
        add_case(f"volkov.hodge_parameters.p{p}.P70.cold", deep_cold, [(70, p, a, b)])
    add_case("volkov.hodge_parameters.p29.P97.cold", deep_cold, [(97, 29, 29**3, 29**2)])

    def units_cold(a, b):
        clear()
        return yasuda_coefficient(a, b, 6001, 8)

    add_case("formal_log.yasuda.units.N3000", units_cold,
             [tuple(PadicScalar(PRIME, u, 0, padic.INFINITY) for u in (3, 5))])
    src = os.path.dirname(os.path.dirname(sys.modules[package].__file__))

    def spawn(code):
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        + code, src], check=True, stdout=subprocess.DEVNULL)

    for name, code in COLD.items():
        add_case(name, spawn, [(code,)] * SPAWNS)
    return out


def _loop_us(fn, operands):
    start = time.perf_counter()
    for ops in operands:
        fn(*ops)
    return (time.perf_counter() - start) / len(operands) * 1e6


def _stats(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return round(statistics.median(runs), 3), round(q3 - q1, 3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append",
                        help="package source tree; twice to interleave two trees")
    args = parser.parse_args(argv)
    trees = args.src or [os.path.join(ROOT, "src")]
    if len(trees) > 2:
        parser.error("--src is given at most twice")
    suites = [cases(_load(src, f"padic_cartan_{side}")) for side, src in zip("ab", trees)]
    out = {}
    for keyed in zip(*suites):
        runs = [[] for _ in suites]
        for repeat in range(REPEATS):
            order = range(len(suites)) if repeat % 4 in (0, 3) else reversed(range(len(suites)))
            for side in order:
                _, fn, operands = keyed[side]
                runs[side].append(_loop_us(fn, operands))
        stats = [_stats(side_runs) for side_runs in runs]
        name = keyed[0][0]
        if len(stats) == 1:
            out[name], out[f"{name}.iqr"] = stats[0]
        else:
            out[name], out[f"{name}.iqr"] = [m for m, _ in stats], [q for _, q in stats]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
