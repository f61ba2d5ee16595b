"""Differential run: the closed form and the lattice-sum oracle against the
polylog integral of `conftest.integral_reference`, a third evaluation
that shares no method with either.

The grid is seeded (`random.Random(11)`): four requests
zeta_{a,b}(k1,k2,k3) at each weight 5, 9, ..., 25, with 1 <= a, b <= 8.
Each side is evaluated at 30 and at 50 digits (plus its 10 guard
digits), the integral at 20 digits more.  The JSON on stdout gives, per
request and precision, how many digits of each side agree with the
integral.  It takes about 40 s on a two-core machine and is not a test
module, so pytest does not collect it; run it from the repository root:

    PYTHONPATH=src python tests/differential.py > differential.json
"""
import json
import random
import sys
import time

from mpmath import mp

from tornheim.numeric import (Precision, PrecisionError, eval_symbolic,
                              lattice_sum)
from tornheim.parity import EvalRequest, closed_form

from conftest import integral_reference

SEED = 11
DIGITS = (30, 50)
GUARD = 20  # the integral's extra digits


def grid():
    rng = random.Random(SEED)
    for w in range(5, 26, 4):
        for _ in range(4):
            a, b = rng.randint(1, 8), rng.randint(1, 8)
            k1 = rng.randint(1, w - 2)
            k2 = rng.randint(1, w - 1 - k1)
            yield EvalRequest(a, b, k1, k2, w - k1 - k2)


def timed(f, *args):
    start = time.perf_counter()
    return f(*args), round(time.perf_counter() - start, 3)


def agreeing_digits(x, reference, dps):
    """-log10 of the relative difference, at most the reference's dps."""
    with mp.workdps(dps):
        rel = abs(x - reference) / abs(reference)
        return round(float(-mp.log10(max(rel, mp.mpf(10) ** -dps))), 2)


def main():
    rows = []
    for req in grid():
        v = closed_form(req)
        for digits in DIGITS:
            prec = Precision(digits, 10.0 ** (10 - digits))
            ref, t_ref = timed(integral_reference, *req, digits + GUARD)
            cf, t_cf = timed(eval_symbolic, v, prec)
            row = {"request": list(req), "weight": req.weight, "digits": digits,
                   "closed_form": agreeing_digits(cf, ref, digits + GUARD),
                   "seconds": {"integral": t_ref, "closed_form": t_cf}}
            try:
                (series, _, _), t_or = timed(lattice_sum, req.factors, prec)
                row["oracle"] = agreeing_digits(series, ref, digits + GUARD)
                row["seconds"]["oracle"] = t_or
            except PrecisionError as e:
                row["oracle"] = None
                row["oracle_error"] = str(e)
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    json.dump({"seed": SEED, "guard_digits": GUARD, "rows": rows},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
