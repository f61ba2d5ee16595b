"""End-to-end six-form lattice zeta evaluation: exact anchors, reduction
shape, mandatory verification, serialization."""
from fractions import Fraction

import pytest
from mpmath import mp

from tornheim import numeric
from tornheim.constants import (PI, SymbolicValue, clausen_s, dirichlet_l3,
                                from_json_dict, mono_weight, zeta)
from tornheim.g2 import (G2Request, VerificationError, evaluate_g2,
                         request_term_sum)
from tornheim.numeric import Precision, eval_symbolic
from tornheim.pfd import verify_step

F = Fraction


def sv(coeff, *factors):
    return SymbolicValue.from_factors(coeff, list(factors))


def test_request_validation():
    with pytest.raises(ValueError):
        G2Request((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        G2Request((1, 1, 1, 1, 1, 0))
    with pytest.raises(ValueError):
        G2Request((1, 1, 1, 1, 1, 1))       # even weight
    assert G2Request([2, 1, 1, 1, 1, 1]).weight == 7


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
