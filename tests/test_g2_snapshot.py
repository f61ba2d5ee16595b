"""Exact snapshot of the G2 closed forms: the Clausen and Dirichlet forms
of every G2 request of weight 7 and 9 (6 + 56 requests), reduced by
partial fractions and closed by the parity engine, with no numeric
check in between.  The reduction may change; these forms may not.

The snapshot in tests/data/g2_forms.json holds the `to_json_dict` terms
of both forms. Regenerate it only from code whose forms are known to be
right:

    PYTHONPATH=src python tests/test_g2_snapshot.py
"""
import json
from functools import cache
from pathlib import Path

import pytest

from tornheim.constants import to_dirichlet_basis, to_json_dict
from tornheim.g2 import G2Request, reduced_closed_form, request_term_sum
from tornheim.pfd import reduce_to_tornheim

SNAPSHOT = Path(__file__).parent / "data" / "g2_forms.json"


def _compositions(weight, parts=6):
    if parts == 1:
        yield (weight,)
        return
    for k in range(1, weight - parts + 2):
        for rest in _compositions(weight - k, parts - 1):
            yield (k,) + rest


def cases():
    for weight in (7, 9):
        yield from _compositions(weight)


def _key(case):
    return ",".join(map(str, case))


def forms(ks):
    req = G2Request(ks)
    clausen = reduced_closed_form(reduce_to_tornheim(request_term_sum(req)))
    return {"clausen": to_json_dict(clausen),
            "dirichlet": to_json_dict(to_dirichlet_basis(clausen, req.weight))}


@cache
def _load():
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case():
    assert len(list(cases())) == 62
    assert sorted(_load()) == sorted(_key(c) for c in cases())


@pytest.mark.parametrize("case", list(cases()), ids=_key)
def test_g2_forms_match_snapshot(case):
    assert forms(case) == _load()[_key(case)]


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    lines = [json.dumps(_key(c)) + ": " + json.dumps(forms(c), sort_keys=True)
             for c in cases()]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
