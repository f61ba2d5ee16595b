"""Exact snapshots of closed forms.

tests/data/closed_forms.json pins pairs whose forms other checks test
only numerically: (3,7), (7,3), (5,8), (8,5) at weights 3-7 and (1,3),
(2,3) at weight 9, every composition of each weight.

tests/data/closed_forms_wide.json pins the weights the G2 reduction
reaches: every composition of weights 9-13 for (1,1), (1,3), (2,3) and
of weights 9-11 for (3,7), and every weight-15 composition with k1 = 1
for those four pairs (cases already in the first file are left out).

tests/data/closed_forms_high.json pins the weights the other two files
do not reach: the distinct reduced terms of the G2 requests
(1,1,1,1,1,16), (5,5,5,5,5,6) and (1,1,1,1,1,38), at weights 21, 31
and 43.

All three hold the `to_json_dict` terms of each form. Regenerate them only
from code whose forms are known to be right:

    PYTHONPATH=src python tests/test_closed_form_snapshot.py
"""
import json
from functools import cache
from pathlib import Path

import pytest

from tornheim import pfd
from tornheim.constants import from_json_dict, to_json_dict
from tornheim.g2 import G2Request, request_term_sum
from tornheim.parity import EvalRequest, closed_form

DATA = Path(__file__).parent / "data"
SNAPSHOT = DATA / "closed_forms.json"
WIDE = DATA / "closed_forms_wide.json"
HIGH = DATA / "closed_forms_high.json"


def _compositions(weight):
    for k1 in range(1, weight - 1):
        for k2 in range(1, weight - k1):
            yield (k1, k2, weight - k1 - k2)


def cases():
    for a, b in [(3, 7), (7, 3), (5, 8), (8, 5)]:
        for weight in (3, 5, 7):
            for ks in _compositions(weight):
                yield (a, b, *ks)
    for a, b in [(1, 3), (2, 3)]:
        for ks in _compositions(9):
            yield (a, b, *ks)


def wide_cases():
    seen = set(cases())
    for a, b, top in [(1, 1, 13), (1, 3, 13), (2, 3, 13), (3, 7, 11)]:
        for weight in (9, 11, 13, 15):
            for ks in _compositions(weight):
                if (weight <= top or (weight == 15 and ks[0] == 1)) \
                        and (a, b, *ks) not in seen:
                    yield (a, b, *ks)


def high_cases():
    for ks in [(1, 1, 1, 1, 1, 16), (5, 5, 5, 5, 5, 6), (1, 1, 1, 1, 1, 38)]:
        reduced = pfd.reduce_to_tornheim(request_term_sum(G2Request(ks)))
        yield from sorted({pfd.tornheim_parameters(t) for t in reduced})


def _key(case):
    return ",".join(map(str, case))


@cache
def _load(path):
    return json.loads(path.read_text())


def _check(path, case):
    want = _load(path)[_key(case)]
    value = closed_form(EvalRequest(*case))
    assert to_json_dict(value) == want
    assert value == from_json_dict(want)


def test_snapshot_covers_every_case():
    assert sorted(_load(SNAPSHOT)) == sorted(_key(c) for c in cases())


@pytest.mark.parametrize("case", list(cases()), ids=_key)
def test_closed_form_matches_snapshot(case):
    _check(SNAPSHOT, case)


def test_wide_snapshot_covers_every_case():
    assert sorted(_load(WIDE)) == sorted(_key(c) for c in wide_cases())


@pytest.mark.parametrize("case", list(wide_cases()), ids=_key)
def test_closed_form_matches_wide_snapshot(case):
    _check(WIDE, case)


def test_high_snapshot_covers_every_case():
    assert sorted(_load(HIGH)) == sorted(_key(c) for c in high_cases())


@pytest.mark.parametrize("case", list(high_cases()), ids=_key)
def test_closed_form_matches_high_snapshot(case):
    _check(HIGH, case)


def _write(path, case_list):
    lines = [json.dumps(_key(c)) + ": " + json.dumps(
                 to_json_dict(closed_form(EvalRequest(*c))), sort_keys=True)
             for c in case_list]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    _write(SNAPSHOT, cases())
    _write(WIDE, wide_cases())
    _write(HIGH, high_cases())
