"""End-to-end six-form lattice zeta evaluation: exact anchors, reduction
shape, mandatory verification, serialization."""
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from mpmath import mp

from tornheim import g2, numeric, parity
from tornheim.constants import (PI, SymbolicValue, clausen_s, dirichlet_l3,
                                from_json_dict, mono_weight,
                                to_dirichlet_basis, to_json_dict, zeta)
from tornheim.g2 import (G2Request, VerificationError, evaluate_g2,
                         reduced_closed_form, request_term_sum)
from tornheim.numeric import Precision, eval_symbolic
from tornheim.parity import EvalRequest, closed_form
from tornheim.pfd import reduce_to_tornheim, tornheim_parameters, verify_step

G2_FORMS = Path(__file__).parent / "data" / "g2_forms.json"

F = Fraction


def sv(coeff, *factors):
    return SymbolicValue.from_terms([(coeff, list(factors))])


def test_request_validation():
    with pytest.raises(ValueError):
        G2Request((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        G2Request((1, 1, 1, 1, 1, 0))
    with pytest.raises(ValueError, match="weight must be odd"):
        G2Request((1, 1, 1, 1, 1, 1))       # even weight
    assert G2Request([2, 1, 1, 1, 1, 1]).weight == 7


@pytest.mark.parametrize("ks", [(1.0, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, True),
                                (1, 1, 1, 1, 1, "2"), (1, 1, 1, 1, 1, F(2))])
def test_request_rejects_non_integers(ks):
    # at construction, not later inside the reducer
    with pytest.raises(ValueError, match="integer"):
        G2Request(ks)


def test_weight_seven_first_entry_doubled():
    res = evaluate_g2(G2Request((2, 1, 1, 1, 1, 1)))
    expected = (sv(F(-109, 1296), (zeta(7), 1))
                + sv(F(1, 18), (zeta(2), 1), (zeta(5), 1)))
    assert res.dirichlet == expected
    assert res.clausen == (sv(F(-109, 1296), (zeta(7), 1))
                           + sv(F(1, 108), (PI, 2), (zeta(5), 1)))
    assert all(c.passed for c in res.checks.values())


def test_weight_seven_last_entry_doubled():
    res = evaluate_g2(G2Request((1, 1, 1, 1, 1, 2)))
    third = F(1, 3)
    assert res.clausen == (sv(F(2507, 1296), (zeta(7), 1))
                           - sv(F(505, 648), (PI, 2), (zeta(5), 1))
                           + sv(F(9, 4), (PI, 1), (clausen_s(6, third), 1)))
    assert res.dirichlet == (sv(F(2507, 1296), (zeta(7), 1))
                             - sv(F(505, 108), (zeta(2), 1), (zeta(5), 1))
                             + sv(F(81, 8), (dirichlet_l3(1), 1),
                                  (dirichlet_l3(6), 1)))


def test_reduction_shape():
    res = evaluate_g2(G2Request((1, 1, 1, 1, 1, 2)))
    seen = set()
    for coeff, a, b, e1, e2, e3 in res.reduction_list():
        assert (a, b) in {(1, 1), (1, 2), (1, 3), (2, 3)}
        assert min(e1, e2, e3) >= 1 and e1 + e2 + e3 == 7
        assert coeff != 0
        seen.add((a, b))
    assert len(seen) > 1


def test_reduction_is_exact_rewrite():
    req = G2Request((1, 2, 1, 1, 1, 1))
    res = evaluate_g2(req, collect_trace=True)
    assert res.trace
    assert verify_step(request_term_sum(req), res.reduction)


def test_checks_carry_precision():
    prec = Precision(digits=25, tolerance=1e-9)
    res = evaluate_g2(G2Request((1, 1, 1, 1, 1, 2)), prec)
    for rec in res.checks.values():
        assert rec.digits == 25 and rec.tolerance == 1e-9 and rec.passed


def test_higher_weight_case():
    res = evaluate_g2(G2Request((1, 2, 1, 2, 2, 1)))
    assert all(c.passed for c in res.checks.values())
    for mono, _ in res.clausen.terms():
        assert mono_weight(mono) == 9
    with mp.workdps(40):
        lhs = eval_symbolic(res.clausen)
        rhs = eval_symbolic(res.dirichlet)
        assert abs(lhs - rhs) <= mp.mpf("1e-33") * abs(rhs)


def test_failed_check_raises(monkeypatch):
    monkeypatch.setattr(numeric, "lattice_sum",
                        lambda factors, precision: (mp.mpf("0.123456789"),
                                                    mp.mpf(0), 40))
    with pytest.raises(VerificationError, match="residual"):
        evaluate_g2(G2Request((2, 1, 1, 1, 1, 1)))


def test_json_round_trip():
    res = evaluate_g2(G2Request((2, 1, 1, 1, 1, 1)))
    data = res.to_json_dict()
    assert data["request"] == [2, 1, 1, 1, 1, 1]
    assert data["weight"] == 7
    assert from_json_dict(data["clausen"]) == res.clausen
    assert from_json_dict(data["dirichlet"]) == res.dirichlet
    assert {r["a"] for r in data["reduction"]} <= {1, 2}
    assert all(rec["passed"] for rec in data["checks"].values())
    assert data["digits"] == 30 and data["tolerance"] == 1e-10


def _reduced_terms(reduced):
    return {EvalRequest(*tornheim_parameters(t)) for t in reduced}


def test_closed_form_memo_holds_each_distinct_term_once(monkeypatch):
    monkeypatch.setattr(g2, "_closed_forms", {})
    computed = []
    monkeypatch.setattr(g2, "closed_form",
                        lambda req: computed.append(req) or closed_form(req))
    # the snapshot's keys are the 62 G2 requests of weights 7 and 9
    snapshot = json.loads(G2_FORMS.read_text())
    requests = [G2Request(tuple(int(k) for k in key.split(",")))
                for key in snapshot]
    distinct = {7: set(), 9: set()}
    for req in requests:
        reduced = reduce_to_tornheim(request_term_sum(req))
        reduced_closed_form(reduced)
        distinct[req.weight] |= _reduced_terms(reduced)
        assert distinct[req.weight] <= set(g2._closed_forms)
    assert {w: len(t) for w, t in distinct.items()} == {7: 12, 9: 40}
    assert set(g2._closed_forms) == distinct[7] | distinct[9]
    assert len(computed) == len(set(computed)) == 52

    memo = dict(g2._closed_forms)
    for name in ("_front", "_block"):  # from empty coefficient caches
        monkeypatch.setattr(parity, name, cache(getattr(parity, name).__wrapped__))
    for req, value in memo.items():
        assert value == closed_form(req)

    # with every term already held, the forms match the snapshot in any order
    for key, req in reversed(list(zip(snapshot, requests))):
        clausen = reduced_closed_form(
            reduce_to_tornheim(request_term_sum(req)))
        assert {"clausen": to_json_dict(clausen),
                "dirichlet": to_json_dict(
                    to_dirichlet_basis(clausen, req.weight))} == snapshot[key]
    assert g2._closed_forms == memo and len(computed) == 52


def test_wrong_memo_entry_fails_the_oracle_check(monkeypatch):
    req = G2Request((2, 1, 1, 1, 1, 1))
    term = sorted(_reduced_terms(reduce_to_tornheim(request_term_sum(req))),
                  key=repr)[0]
    wrong = closed_form(term) + sv(1, (zeta(7), 1))
    monkeypatch.setattr(g2, "_closed_forms", {term: wrong})
    with pytest.raises(VerificationError, match="residual"):
        evaluate_g2(req)
