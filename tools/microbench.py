"""Micro-layer timings for the L and Q_p arithmetic and the exact log routes, stdlib only.

    python3 tools/microbench.py [--src DIR]

Prints one JSON object of median microseconds per operation, each key
followed by `<key>.iqr`, the interquartile range of the same timed loops:

  eisenstein.mul.eE, eisenstein.inverse.eE   e = 3, 4, 6; p = 11, every
      coordinate a random 12-digit unit at valuation 0 (abs_precision 12)
  eisenstein.pow.eE                          the same shape with 7-digit units,
      raised to 11**5 // 6, an exponent the p = 11, k = 2 Yasuda sums reach
  padic.mul.dD, padic.add.dD                 D = 4, 32, 256 digits; p = 11,
      random D-digit units at valuation 0
  formal_log.series.r501, formal_log.exact.r501
      d_1..d_501 of one seeded rational curve (denominators 23 and 37) by
      series_inversion_logarithm and by yasuda_coefficient_exact per odd r;
      one op is the whole prefix
  formal_log.yasuda.p4, formal_log.yasuda.p5
      the two sums of a deep-batch level-2 beta: d_r at r = 17**4 to pi**4 and
      r = 17**5 to pi**2 on the good model over L (e = 3) of seeded p = 17
      curves a = u * 17**3, b = u' * 17**2

Each median and IQR is taken over REPEATS = 15 timed loops (time.perf_counter)
of the same 200 seeded operand pairs (one curve for formal_log.series and
.exact, CURVES curves for formal_log.yasuda); inverse() and pow run on the
first 20 of them.
--src selects the package source, so one checkout can time another
(default: the src/ beside this script).
"""

import argparse
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

PRIME, PAIRS, INVERSES, REPEATS, CURVES = 11, 200, 20, 15, 5


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(here), "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from padic_cartan.curve import WeierstrassCurve, good_model_over_L
    from padic_cartan.eisenstein import EisensteinElement
    from padic_cartan.formal_log import (
        series_inversion_logarithm,
        yasuda_coefficient,
        yasuda_coefficient_exact,
    )
    from padic_cartan.padic import PadicScalar

    rng = random.Random(8)

    def scalar(digits):
        while True:
            unit = rng.randrange(1, PRIME**digits)
            if unit % PRIME:
                return PadicScalar(PRIME, unit, 0, digits)

    def element(e, digits=12):
        return EisensteinElement(PRIME, e, [scalar(digits) for _ in range(e)])

    out = {}

    def time_us(name, fn, operands):
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for ops in operands:
                fn(*ops)
            runs.append((time.perf_counter() - start) / len(operands) * 1e6)
        q1, _, q3 = statistics.quantiles(runs, n=4)
        out[name] = round(statistics.median(runs), 3)
        out[f"{name}.iqr"] = round(q3 - q1, 3)

    for e in (3, 4, 6):
        pairs = [(element(e), element(e)) for _ in range(PAIRS)]
        time_us(f"eisenstein.mul.e{e}", lambda a, b: a * b, pairs)
        singles = [(a,) for a, _ in pairs[:INVERSES]]
        time_us(f"eisenstein.inverse.e{e}", lambda a: a.inverse(), singles)
        units = [(element(e, 7),) for _ in range(INVERSES)]
        time_us(f"eisenstein.pow.e{e}", lambda a: a ** (PRIME**5 // 6), units)
    for digits in (4, 32, 256):
        pairs = [(scalar(digits), scalar(digits)) for _ in range(PAIRS)]
        time_us(f"padic.mul.d{digits}", lambda a, b: a * b, pairs)
        time_us(f"padic.add.d{digits}", lambda a, b: a + b, pairs)
    curve = [(Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), 23),
              Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), 37))]
    time_us("formal_log.series.r501",
            lambda a, b: series_inversion_logarithm(a, b, 501, force=True), curve)
    time_us("formal_log.exact.r501",
            lambda a, b: [yasuda_coefficient_exact(a, b, r) for r in range(1, 502, 2)], curve)
    models = []
    while len(models) < CURVES:
        a, b = rng.randrange(1, 17) * 17**3, rng.randrange(1, 17) * 17**2
        if (4 * a**3 + 27 * b**2) % 17**5:  # v(disc) = 4: e = 3
            models.append(tuple(good_model_over_L(WeierstrassCurve(17, a, b), 3)))
    time_us("formal_log.yasuda.p4", lambda a, b: yasuda_coefficient(a, b, 17**4, 4), models)
    time_us("formal_log.yasuda.p5", lambda a, b: yasuda_coefficient(a, b, 17**5, 2), models)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
