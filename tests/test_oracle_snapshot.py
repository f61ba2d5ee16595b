"""Snapshot of the series oracle's own output.

Other tests check `lattice_sum` against anchors and tolerances; this one
pins the strings it yields for 52 factor sets, so that a change to the
oracle's arithmetic (caching, hoisting, reordering, sharing values
between shifts) must leave every digit, every tail bound and every
cutoff where it was:

- the 6 G2 requests of weight 7 and every tenth of the 56 of weight 9;
- 6 G2 requests each of weight 11 and 13 with at least two of k3..k6
  >= 2, where the four shifts share the most Hurwitz arguments;
- every weight-5 row of the four G2 pairs (1,1), (1,2), (1,3), (2,3);
- 4 `eval` requests with b in 4..8 at 50 digits and tolerance 1e-35.

tests/data/oracle_values.json holds, per set, `mp.nstr(value, digits)`,
`mp.nstr(bound, 5)` and the cutoff. Regenerate it only from code whose
oracle values are known to be right:

    PYTHONPATH=src python tests/test_oracle_snapshot.py
"""
import json
from functools import cache
from pathlib import Path

import pytest
from mpmath import mp

from tornheim.g2 import G2Request
from tornheim.numeric import DEFAULT_PRECISION, Precision, lattice_sum
from tornheim.parity import EvalRequest

SNAPSHOT = Path(__file__).parent / "data" / "oracle_values.json"
STRICT = Precision(50, 1e-35)


def _compositions(weight, parts):
    if parts == 1:
        yield (weight,)
        return
    for k in range(1, weight - parts + 2):
        for rest in _compositions(weight - k, parts - 1):
            yield (k,) + rest


def cases():
    """(key, factors, precision) for every pinned factor set."""
    g2 = list(_compositions(7, 6)) + list(_compositions(9, 6))[::10]
    for weight in (11, 13):
        dense = [ks for ks in _compositions(weight, 6)
                 if sum(k >= 2 for k in ks[2:]) >= 2]
        g2 += dense[::len(dense) // 6]
    for ks in g2:
        yield ("g2 " + " ".join(map(str, ks)), G2Request(ks).factors,
               DEFAULT_PRECISION)
    for a, b in [(1, 1), (1, 2), (1, 3), (2, 3)]:
        for ks in _compositions(5, 3):
            yield (f"zeta {a} {b} " + " ".join(map(str, ks)),
                   EvalRequest(a, b, *ks).factors, DEFAULT_PRECISION)
    for a, b, *ks in [(1, 4, 1, 1, 3), (3, 5, 2, 2, 3), (2, 7, 1, 3, 1),
                      (5, 8, 1, 1, 5)]:
        yield (f"zeta {a} {b} " + " ".join(map(str, ks)) + " strict",
               EvalRequest(a, b, *ks).factors, STRICT)


def oracle_entry(factors, precision):
    value, bound, cutoff = lattice_sum(factors, precision)
    return {"value": mp.nstr(value, precision.digits),
            "bound": mp.nstr(bound, 5), "cutoff": cutoff}


@cache
def _load():
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case():
    keys = [key for key, _, _ in cases()]
    assert len(keys) == len(set(keys)) == 52
    assert sorted(_load()) == sorted(keys)


@pytest.mark.parametrize("case", list(cases()), ids=lambda c: c[0])
def test_oracle_matches_snapshot(case):
    key, factors, precision = case
    assert oracle_entry(factors, precision) == _load()[key]


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    lines = [json.dumps(key) + ": " + json.dumps(oracle_entry(f, p), sort_keys=True)
             for key, f, p in cases()]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
