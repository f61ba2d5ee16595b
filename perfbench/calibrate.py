"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by up to a factor of two
over minutes, and CPU time drifts with wall time, so raw timings of the
same code spread by 20-30% between runs.  The worker therefore times a
fixed calibration job between requests.  The job does the same kinds of
work as tornheim (exact rationals, pure-Python multiprecision floats and
a dict larger than a small loop's working set), but it calls no tornheim
code, so a change to the program cannot speed it up or slow it down.

The speed also changes within seconds, so each request is scaled by
the calibrations made just before and just after it:
REFERENCE_S / (their mean).  The reported times are those of a host on
which the job takes REFERENCE_S.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction
from math import comb

import mpmath

# a typical time of one calibration() call on a shared 2.0 GHz Xeon vCPU,
# Python 3.11 and mpmath 1.3 with the pure-Python backend
REFERENCE_S = 0.025


def _job():
    # exact rational work: Bernoulli numbers and Bernoulli polynomial values
    bern = [Fraction(1)]
    for m in range(1, 36):
        bern.append(-sum(Fraction(comb(m + 1, j)) * bern[j] for j in range(m))
                    / (m + 1))
    x = Fraction(2, 7)
    poly = [sum(Fraction(comb(k, j)) * bern[j] * x ** (k - j) for j in range(k + 1))
            for k in range(2, 24, 3)]
    # multiprecision floats, in a context of its own
    ctx = mpmath.MPContext()
    ctx.dps = 60
    total = ctx.mpf(0)
    shift = ctx.mpf(1) / 3
    for n in range(1, 250):
        t = ctx.mpf(n)
        total += 1 / (t ** 3 * (t + shift) ** 2)
    # a working set larger than the caches of a small loop
    table = {(i, i * 7 % 13): Fraction(i, 1 + i % 17) for i in range(6000)}
    acc = Fraction(0)
    for i in range(0, 6000, 3):
        acc += table[(i, i * 7 % 13)]
    return poly[-1], total, acc


def calibration() -> float:
    """Seconds one calibration job takes now.  The garbage collector is
    off meanwhile, so that the program's heap and gc settings do not
    change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _job()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
