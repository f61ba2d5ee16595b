"""Acceptance gate: the package's headline guarantees, one test per
criterion, each printing a single PASS/FAIL line.

Covers exact anchor values, exactness and numeric agreement over a
parameter grid, an even power of i on every term the engine writes, verified
partial-fraction rewriting on random inputs, structural invariants of
the closed forms, and the exponential shift identity behind the
constant-term bookkeeping.
"""
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest
from mpmath import mp

from tornheim.constants import (PI, SymbolicValue, clausen_s, dirichlet_l3,
                                mono_weight, zeta)
from tornheim.g2 import G2Request, evaluate_g2, request_term_sum
from tornheim.numeric import (Precision, eval_constant, eval_symbolic,
                              lattice_sum)
import tornheim.parity as parity
from tornheim.parity import (EvalRequest, alpha_coeffs, alpha_tilde_coeffs,
                             closed_form, g_coefficient)
from tornheim.pfd import (FORM_M, FORM_N, G2_TARGETS, LinearForm, TermProduct,
                          TermSum, reduce_to_tornheim, verify_step)

F = Fraction
PREC = Precision(digits=30, tolerance=1e-10)

PAIRS = [(1, 1), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4)]


def sv(coeff, *factors):
    return SymbolicValue.from_terms([(coeff, list(factors))])


def report(capsys, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}",
              flush=True)
    assert ok, f"{name}: {detail}"


def compositions(weight):
    return [(k1, k2, weight - k1 - k2)
            for k1 in range(1, weight - 1) for k2 in range(1, weight - k1)]


@lru_cache(maxsize=1)
def grid_closed_forms():
    return [(a, b, ks, closed_form(EvalRequest(a, b, *ks)))
            for (a, b) in PAIRS for w in (5, 7) for ks in compositions(w)]


def test_01_exact_weight_five_unit_pair(capsys):
    t0 = time.perf_counter()
    value = closed_form(EvalRequest(1, 1, 1, 1, 3))
    dt = time.perf_counter() - t0
    expected = sv(4, (zeta(5), 1)) - sv(F(1, 3), (PI, 2), (zeta(3), 1))
    report(capsys, "01 exact closed form, (a,b)=(1,1), k=(1,1,3)",
           value == expected and dt < 1.0, f"{dt:.3f}s")


def test_02_exact_weight_five_pair_one_three(capsys):
    t0 = time.perf_counter()
    value = closed_form(EvalRequest(1, 3, 1, 1, 3))
    dt = time.perf_counter() - t0
    third = F(1, 3)
    expected = (sv(F(367, 81), (zeta(5), 1))
                - sv(F(19, 81), (PI, 2), (zeta(3), 1))
                - sv(F(27, 81), (PI, 1), (clausen_s(4, third), 1))
                - sv(F(4, 81), (PI, 3), (clausen_s(2, third), 1)))
    report(capsys, "02 exact closed form, (a,b)=(1,3), k=(1,1,3)",
           value == expected and dt < 1.0, f"{dt:.3f}s")


def test_03_exact_g2_weight_seven(capsys):
    t0 = time.perf_counter()
    res = evaluate_g2(G2Request((2, 1, 1, 1, 1, 1)), PREC)
    dt = time.perf_counter() - t0
    expected = (sv(F(-109, 1296), (zeta(7), 1))
                + sv(F(1, 18), (zeta(2), 1), (zeta(5), 1)))
    report(capsys, "03 exact G2 value, k=(2,1,1,1,1,1)",
           res.dirichlet == expected and dt < 10.0, f"{dt:.2f}s")


def test_04_g2_weight_seven_clausen_coefficient(capsys):
    res = evaluate_g2(G2Request((1, 1, 1, 1, 1, 2)), PREC)
    third = F(1, 3)
    c_z7 = res.clausen.coefficient([(zeta(7), 1)])
    c_pz5 = res.clausen.coefficient([(PI, 2), (zeta(5), 1)])
    c_s6 = res.clausen.coefficient([(PI, 1), (clausen_s(6, third), 1)])
    c_l16 = res.dirichlet.coefficient([(dirichlet_l3(1), 1),
                                       (dirichlet_l3(6), 1)])
    exact_ok = (c_z7 == F(2507, 1296) and c_pz5 == F(-505, 648))

    # solve the series for the remaining coefficient and compare
    with mp.workdps(PREC.dps):
        series = lattice_sum(G2Request((1, 1, 1, 1, 1, 2)).factors, PREC)[0]
        rest = (series
                - mp.mpf(2507) / 1296 * eval_constant(zeta(7), PREC)
                + mp.mpf(505) / 648 * mp.pi ** 2 * eval_constant(zeta(5), PREC))
        oracle = rest / (mp.pi * eval_constant(clausen_s(6, third), PREC))
        num_ok = abs(oracle - mp.mpf(c_s6.numerator) / c_s6.denominator) \
            <= mp.mpf("1e-10")
        oracle_l = rest / (eval_constant(dirichlet_l3(1), PREC)
                           * eval_constant(dirichlet_l3(6), PREC))
        num_ok = num_ok and abs(
            oracle_l - mp.mpf(c_l16.numerator) / c_l16.denominator) \
            <= mp.mpf("1e-10")
    report(capsys, "04 G2 k=(1,1,1,1,1,2) coefficients",
           exact_ok and num_ok,
           f"S6 coeff {c_s6}, L1*L6 coeff {c_l16}")


def test_05_reduction_matches_reference_combination(capsys):
    reduced = reduce_to_tornheim(request_term_sum(G2Request((1, 1, 1, 1, 1, 2))))

    def term(coeff, a, b, e1, e2, e3):
        return TermProduct.make(coeff, [(FORM_M, e1), (FORM_N, e2),
                                        (LinearForm(a, b), e3)])

    reference = TermSum.make([
        term(F(1, 2), 1, 1, 5, 1, 1), term(-16, 1, 2, 5, 1, 1),
        term(F(9, 2), 1, 3, 5, 1, 1), term(9, 2, 3, 4, 1, 2),
        term(18, 2, 3, 5, 1, 1),
    ])

    def value(ts):
        total = mp.mpf(0)
        for t in ts:
            e1 = t.exponent(FORM_M)
            e2 = t.exponent(FORM_N)
            form, e3 = [(f, e) for f, e in t.exponents
                        if f not in (FORM_M, FORM_N)][0]
            x = lattice_sum(EvalRequest(form.cm, form.cn, e1, e2, e3).factors,
                            PREC)[0]
            total += mp.mpf(t.coeff.numerator) / t.coeff.denominator * x
        return total

    with mp.workdps(PREC.dps):
        mine, ref = value(reduced), value(reference)
        ok = abs(mine - ref) <= mp.mpf("1e-10") * abs(ref)
        detail = f"relative gap {mp.nstr(abs(mine - ref) / abs(ref), 3)}"
    report(capsys, "05 reduction equals reference combination term by term "
           "and numerically", reduced == reference and ok, detail)


def test_06_grid_closed_forms_match_series(capsys):
    t0 = time.perf_counter()
    worst = mp.mpf(0)
    for a, b, ks, value in grid_closed_forms():
        lhs = eval_symbolic(value, PREC)
        rhs = lattice_sum(EvalRequest(a, b, *ks).factors, PREC)[0]
        with mp.workdps(PREC.dps):
            rel = abs(lhs - rhs) / abs(rhs)
            worst = max(worst, rel)
    dt = time.perf_counter() - t0
    report(capsys, "06 grid of 126 closed forms vs series",
           worst <= mp.mpf("1e-8") and dt < 300.0,
           f"worst rel {mp.nstr(worst, 3)}, {dt:.1f}s")


def test_07_grid_imaginary_parts_vanish(capsys, monkeypatch):
    # every nonzero term both G's write must carry an even power of i;
    # an odd one is counted here instead of raising, so the count is whole
    checked, odd = 0, 0
    real_terms = parity._real_terms

    def counting(k, e, x, cst):
        nonlocal checked, odd
        if x and not cst.is_zero:
            checked += 1
            if k % 2:
                odd += 1
                return []
        return real_terms(k, e, x, cst)

    monkeypatch.setattr(parity, "_real_terms", counting)
    for a, b, ks, _ in grid_closed_forms():
        req = EvalRequest(a, b, *ks)
        g_coefficient(req), g_coefficient(req.swapped)
    report(capsys, "07 odd powers of i over the grid",
           checked > 0 and odd == 0,
           f"{odd} odd of {checked} nonzero terms")


def test_08_random_rewrites_all_steps_verified(capsys):
    rng = random.Random(20240817)
    checked = 0
    ok = True
    for _ in range(500):
        weight = rng.randint(4, 9)
        ntargets = rng.randint(2, min(4, weight - 2))
        forms = [FORM_M, FORM_N] + rng.sample(G2_TARGETS, ntargets)
        exps = [1] * len(forms)
        for _ in range(weight - len(forms)):
            exps[rng.randrange(len(forms))] += 1
        coeff = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        t = TermProduct.make(coeff, list(zip(forms, exps)))
        trace = []
        out = reduce_to_tornheim(TermSum.make([t]), trace=trace)
        for st in trace:
            ok = ok and verify_step(TermSum.make([st.term]), st.produced)
        ok = ok and verify_step(TermSum.make([t]), out)
        checked += len(trace)
        if not ok:
            break
    report(capsys, "08 500 random products, every rewrite step verified",
           ok, f"{checked} steps")


def test_09_grid_structural_invariants(capsys):
    ok = True
    for a, b, ks, value in grid_closed_forms():
        k = sum(ks)
        lcm = a * b // gcd(a, b)
        for mono, _ in value.terms():
            indexed = [(s, e) for s, e in mono if s.kind != "pi"]
            e_pi = sum(e for s, e in mono if s.kind == "pi")
            ok = ok and mono_weight(mono) == k
            ok = ok and len(indexed) == 1 and indexed[0][1] == 1
            sym = indexed[0][0]
            if sym.kind == "S":
                ok = ok and e_pi % 2 == 1
            else:
                ok = ok and sym.kind in ("zeta", "C") and e_pi % 2 == 0
            if sym.kind in ("C", "S"):
                ok = ok and lcm % sym.angle.denominator == 0
            ok = ok and 0 <= e_pi // 2 <= (k - 3) // 2
        if not ok:
            break
    report(capsys, "09 structural invariants over the grid", ok)


def test_10_exponential_shift_identity(capsys):
    degree = 10
    ok = True
    for b, d in [(2, 1), (3, 2), (4, 3)]:
        # e^{-d t1} alpha_b = alpha_b + sum_{c<=d} atilde_{b,c}, the left
        # side as a Cauchy sum in t1
        alpha = alpha_coeffs(b, degree, degree)
        tildes = [alpha_tilde_coeffs(b, c, degree, degree)
                  for c in range(1, b)]
        for r in range(degree + 1):
            for s in range(degree + 1):
                lhs = sum(F((-d) ** p, factorial(p)) * alpha[(r - p, s)]
                          for p in range(r + 1))
                rhs = alpha[(r, s)] + sum(t[(r, s)] for t in tildes[:d])
                ok = ok and lhs == rhs
        for tilde in tildes:
            ok = ok and all(tilde[(0, s)] == 0 for s in range(degree + 1))
    report(capsys, "10 exponential shift identity, degree 10 exact", ok)
