"""Exact snapshot of closed forms for pairs whose forms other checks test
only numerically: (3,7), (7,3), (5,8), (8,5) at weights 3-7 and (1,3),
(2,3) at weight 9, every composition of each weight.

The snapshot in tests/data/closed_forms.json holds the `to_json_dict`
terms of each form. Regenerate it only from code whose forms are known
to be right:

    PYTHONPATH=src python tests/test_closed_form_snapshot.py
"""
import json
from functools import cache
from pathlib import Path

import pytest

from tornheim.constants import from_json_dict, to_json_dict
from tornheim.parity import EvalRequest, closed_form

SNAPSHOT = Path(__file__).parent / "data" / "closed_forms.json"


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


def _key(case):
    return ",".join(map(str, case))


@cache
def _load():
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case():
    assert sorted(_load()) == sorted(_key(c) for c in cases())


@pytest.mark.parametrize("case", list(cases()), ids=_key)
def test_closed_form_matches_snapshot(case):
    want = _load()[_key(case)]
    value = closed_form(EvalRequest(*case))
    assert to_json_dict(value) == want
    assert value == from_json_dict(want)


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    lines = [json.dumps(_key(c)) + ": " + json.dumps(
                 to_json_dict(closed_form(EvalRequest(*c))), sort_keys=True)
             for c in cases()]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
