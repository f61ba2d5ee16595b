"""Parity engine: generating-series coefficients, the exponential shift
identity, and closed forms checked exactly and against the numeric
series oracle."""
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd

import pytest
from mpmath import mp

import tornheim.parity as parity
from tornheim.arith import bernoulli_number, bernoulli_poly
from tornheim.constants import PI, SymbolicValue, clausen_s, mono_weight, zeta
from tornheim.numeric import Precision, eval_symbolic, lattice_sum
from tornheim.parity import (EvalRequest, alpha_coeffs, alpha_tilde_coeffs,
                             closed_form, g_coefficient, term1_coeff,
                             term2_coeff)

from conftest import run_optimized

F = Fraction


def sv(coeff, *factors):
    return SymbolicValue.from_terms([(coeff, list(factors))])


# ----------------------------------------------- alpha series coefficients

def test_alpha_constant_term():
    assert alpha_coeffs(1, 6, 6)[(0, 0)] == 1
    assert alpha_coeffs(3, 6, 6)[(0, 0)] == 1


def _closed_formula_A(b, r, s, convention):
    # Cauchy-product closed formula: A_b(r,s) as a double Bernoulli sum.
    # It reproduces the defining series only with at-zero numbers.
    total = F(0)
    for p1 in range(r + 1):
        q1 = r - p1
        for p2 in range(s + 1):
            q2 = s - p2
            total += (F((-1) ** (q2 + p2) * b ** p1)
                      * bernoulli_number(q1, convention)
                      * bernoulli_number(q2, convention)
                      / (factorial(p1) * factorial(p2) * factorial(q1)
                         * factorial(q2) * (p1 + p2 + 1)))
    return total


@pytest.mark.parametrize("b", [1, 2, 3, 5])
def test_alpha_closed_formula_needs_at_zero_numbers(b):
    series = alpha_coeffs(b, 4, 4)
    for r in range(5):
        for s in range(5):
            assert series[(r, s)] == _closed_formula_A(b, r, s, "at-zero")
    # the at-one reading disagrees already at (1,0)
    assert series[(1, 0)] == F(b - 1, 2)
    assert _closed_formula_A(b, 1, 0, "at-one") == F(b + 1, 2)


@pytest.mark.parametrize("b,d", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2)])
def test_exponential_shift_identity(b, d):
    # e^{-d t1} alpha_b = alpha_b + sum_{c=1..d} atilde_{b,c}, exactly, up
    # to degree 10 in each variable; the left side as a Cauchy sum in t1
    degree = 10
    alpha = alpha_coeffs(b, degree, degree)
    tildes = [alpha_tilde_coeffs(b, c, degree, degree) for c in range(1, d + 1)]
    for r in range(degree + 1):
        for s in range(degree + 1):
            lhs = sum(F((-d) ** p, factorial(p)) * alpha[(r - p, s)]
                      for p in range(r + 1))
            assert lhs == alpha[(r, s)] + sum(t[(r, s)] for t in tildes)


@pytest.mark.parametrize("b,c", [(2, 1), (3, 2), (4, 1)])
def test_alpha_tilde_vanishes_without_t1(b, c):
    series = alpha_tilde_coeffs(b, c, 9, 9)
    for s in range(10):
        assert series[(0, s)] == 0


def test_alpha_tilde_validates_shift():
    with pytest.raises(ValueError):
        alpha_tilde_coeffs(2, 2, 5, 5)
    with pytest.raises(ValueError):
        alpha_tilde_coeffs(2, 0, 5, 5)


def _cold_coefficient_caches(monkeypatch):
    """Give the coefficient functions empty caches until the test ends."""
    for name in ("_front", "_block"):
        monkeypatch.setattr(parity, name, cache(getattr(parity, name).__wrapped__))


@pytest.mark.parametrize("b", [3, 7])
def test_grown_tables_equal_direct_builds(b, monkeypatch):
    # rectangles asked for first in rows, then in cols, hold exactly what
    # one build at the final size from empty caches gives; a smaller
    # rectangle is the restriction of a larger one
    def table(c, rows, cols):
        return (alpha_tilde_coeffs(b, c, rows, cols) if c
                else alpha_coeffs(b, rows, cols))

    _cold_coefficient_caches(monkeypatch)
    grown = {}
    for c in range(b):
        table(c, 2, 3)
        table(c, 9, 3)
        grown[c] = table(c, 9, 8)
        assert set(grown[c]) == {(r, s) for r in range(10) for s in range(9)}
        assert table(c, 4, 5) == {(r, s): v for (r, s), v in grown[c].items()
                                  if r <= 4 and s <= 5}
    _cold_coefficient_caches(monkeypatch)
    assert {c: table(c, 9, 8) for c in range(b)} == grown

    # a caller's dict is its own: writing to it changes no later table
    # or closed form
    req = EvalRequest(1, b, 3, 3, 3)
    value = closed_form(req)
    want = {c: dict(t) for c, t in grown.items()}
    for t in grown.values():
        for key in t:
            t[key] += 1
    assert {c: table(c, 9, 8) for c in range(b)} == want
    assert closed_form(req) == value


def test_sweep_computes_each_coefficient_once(monkeypatch):
    # a sweep of weights 5-9 with b <= 8 computes each block (b, c, k2, k3)
    # it reaches once, and a repeated sweep computes none
    computed = []
    plain = parity._block.__wrapped__
    monkeypatch.setattr(parity, "_block", cache(
        lambda *key: computed.append(key) or plain(*key)))

    def sweep():
        for b in range(1, 9):
            for weight in (5, 7, 9):
                for k1 in range(1, weight - 1):
                    for k2 in range(1, weight - k1):
                        g_coefficient(EvalRequest(1, b, k1, k2, weight - k1 - k2))

    sweep()
    assert len(computed) == len(set(computed))
    assert set(computed) == {(b, c, k2, k3) for b in range(1, 9)
                             for c in range(b) for k2 in range(1, 8)
                             for k3 in range(1, 9 - k2)}
    computed.clear()
    sweep()
    assert computed == []


# -------------------------------------------------------------- requests

def test_request_validation():
    with pytest.raises(ValueError, match="weight must be odd"):
        EvalRequest(1, 1, 1, 1, 2)      # even weight
    with pytest.raises(ValueError):
        EvalRequest(0, 1, 1, 1, 3)
    req = EvalRequest(2, 5, 1, 2, 4)
    assert req.weight == 7
    assert req.swapped == EvalRequest(5, 2, 2, 1, 4)


@pytest.mark.parametrize("args", [(1.0, 1, 1, 1, 3), (1, 1, 1, 1, 3.0),
                                  (True, 1, 1, 1, 3), (1, 1, "1", 1, 3),
                                  (1, F(1), 1, 1, 3)])
def test_request_rejects_non_integers(args):
    # at construction, not later inside closed_form
    with pytest.raises(ValueError, match="integers"):
        EvalRequest(*args)


def test_zeta_block_matches_direct_formula():
    # term1 written straight from its definition: with s = k2+k3-n2-n3,
    # j = k2-n2 and e = k2+k3-s, the sum over odd k1+s of
    # i^e w_s 2^e a^-s zeta(k1+s), w_s = sum A_b(n2,n3) C(s,j) (-b)^j
    for (a, b, k1, k2, k3) in [(1, 1, 1, 1, 3), (1, 2, 1, 1, 3),
                               (2, 3, 2, 1, 2), (3, 2, 1, 2, 4),
                               (2, 5, 3, 3, 3), (4, 3, 2, 4, 1)]:
        table = alpha_coeffs(b, k2, k3)
        weights = {}
        for (n2, n3), ab in table.items():
            s, j = k2 + k3 - n2 - n3, k2 - n2
            weights[s] = weights.get(s, 0) + ab * comb(s, j) * (-b) ** j
        want = SymbolicValue.zero()
        for s, w in weights.items():
            e = k2 + k3 - s
            if s >= 1 and (k1 + s) % 2:
                assert e % 2 == 0
                want += sv((-1) ** (e // 2) * w * F(2 ** e, a ** s),
                           (PI, e), (zeta(k1 + s), 1))
        assert term1_coeff(EvalRequest(a, b, k1, k2, k3)) == want


@cache
def _tilde_diagonal_sums(b, c, k2, k3):
    # {s0: sum T(n2,n3) C(s0,j) (-b)^j}, T = atilde_{b,c}, s0 = k2+k3-n2-n3
    # and j = k2-n2: the table summed along its anti-diagonals
    sums = {}
    for (n2, n3), t in alpha_tilde_coeffs(b, c, k2, k3).items():
        s0, j = k2 + k3 - n2 - n3, k2 - n2
        sums[s0] = sums.get(s0, 0) + t * comb(s0, j) * (-b) ** j
    return sums


@cache
def _bernoulli_spread(q, x):
    return (-1) ** q * bernoulli_poly(q, x) / factorial(q)


def test_shift_blocks_match_contracted_tables(monkeypatch):
    # term2 by the route of the paper's tables: each diagonal sum w at s0
    # spread over s + q = s0 + 1 as (-1)^q B_q(x)/q! w, at (c, s) with
    # x = c/b, and negated at x = 1 on the zeta key (b, s) for odd k1+s;
    # the nonzero weights handed to the writer must be these
    monkeypatch.setattr(parity, "_write", lambda req, weights: {
        key: w for key, w in weights.items() if w})
    for b in range(2, 9):
        for weight in (5, 7, 9):
            for k1 in range(1, weight - 1):
                for k2 in range(1, weight - k1):
                    k3 = weight - k1 - k2
                    weights = {}
                    for c in range(1, b):
                        for s0, w in _tilde_diagonal_sums(b, c, k2, k3).items():
                            for s in range(1, s0 + 2):
                                q = s0 + 1 - s
                                if (k1 + s) % 2:
                                    weights[(b, s)] = (weights.get((b, s), 0)
                                                       - w * _bernoulli_spread(q, 1))
                                weights[(c, s)] = (weights.get((c, s), 0)
                                                   + w * _bernoulli_spread(q, F(c, b)))
                    want = {key: w for key, w in weights.items() if w}
                    for a in range(1, 9):
                        assert term2_coeff(EvalRequest(a, b, k1, k2, k3)) == want


# ----------------------------------------------------------- closed forms

def test_weight_five_unit_pair():
    v = closed_form(EvalRequest(1, 1, 1, 1, 3))
    assert v == sv(4, (zeta(5), 1)) - sv(F(1, 3), (PI, 2), (zeta(3), 1))


def test_weight_five_mixed_pair():
    v = closed_form(EvalRequest(1, 3, 1, 1, 3))
    third = F(1, 3)
    expected = (sv(F(367, 81), (zeta(5), 1))
                - sv(F(19, 81), (PI, 2), (zeta(3), 1))
                - sv(F(1, 3), (PI, 1), (clausen_s(4, third), 1))
                - sv(F(4, 81), (PI, 3), (clausen_s(2, third), 1)))
    assert v == expected


def test_series_parameter_symmetry():
    # zeta_{a,b}(k1,k2,k3) = zeta_{b,a}(k2,k1,k3) by exchanging m and n
    for (a, b, k1, k2, k3) in [(1, 2, 1, 1, 3), (2, 3, 2, 1, 2),
                               (1, 3, 1, 2, 2), (3, 4, 1, 1, 3)]:
        lhs = closed_form(EvalRequest(a, b, k1, k2, k3))
        rhs = closed_form(EvalRequest(b, a, k2, k1, k3))
        assert lhs == rhs


def test_no_shift_block_when_b_is_one():
    assert term2_coeff(EvalRequest(3, 1, 1, 1, 3)).is_zero


def test_every_block_term_has_an_even_power_of_i(monkeypatch):
    # record each power of i the two blocks write, with its term
    written = []
    real_terms = parity._real_terms

    def recording(k, e, x, cst):
        written.append((k, x, cst))
        return real_terms(k, e, x, cst)

    monkeypatch.setattr(parity, "_real_terms", recording)
    for (a, b, k1, k2, k3) in [(1, 1, 1, 1, 3), (1, 2, 1, 1, 3),
                               (2, 3, 1, 2, 2), (2, 5, 3, 1, 3),
                               (3, 4, 1, 1, 5)]:
        req = EvalRequest(a, b, k1, k2, k3)
        g_coefficient(req), g_coefficient(req.swapped)
    nonzero = [(k, cst) for k, x, cst in written if x and not cst.is_zero]
    assert all(k % 2 == 0 for k, _ in nonzero)
    # the S terms are the ones written at i^(e+1): some must occur
    assert any(sym.kind == "S" for _, cst in nonzero
               for mono, _ in cst.terms() for sym, _ in mono)


def test_writer_skips_zero_weights(monkeypatch):
    # a (c, s) weight that sums to exactly 0 writes no term, so the writer
    # reduces no angle for it; a quarter of the weights on this grid are 0
    xs = []
    real_terms = parity._real_terms

    def recording(k, e, x, cst):
        xs.append(x)
        return real_terms(k, e, x, cst)

    monkeypatch.setattr(parity, "_real_terms", recording)
    for k in (5, 7, 9):
        for a in range(1, 6):
            for b in range(1, 6):
                for k1 in range(1, k - 1):
                    for k2 in range(1, k - k1):
                        closed_form(EvalRequest(a, b, k1, k2, k - k1 - k2))
    assert xs and all(xs)


@pytest.mark.parametrize("a,b,k1,k2,k3", [
    (1, 1, 1, 1, 3), (1, 1, 2, 2, 3), (1, 2, 1, 1, 3), (1, 2, 3, 1, 3),
    (1, 3, 1, 2, 2), (2, 3, 1, 1, 3), (2, 5, 1, 2, 2), (3, 4, 2, 2, 3),
])
def test_closed_form_matches_series(a, b, k1, k2, k3):
    req = EvalRequest(a, b, k1, k2, k3)
    value = closed_form(req)
    prec = Precision(digits=35, tolerance=1e-25)    # the accuracy asserted
    lhs = eval_symbolic(value, prec)
    rhs = lattice_sum(req.factors, prec)[0]
    with mp.workdps(prec.dps):
        assert abs(lhs - rhs) <= mp.mpf("1e-25") * abs(rhs)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3),
                                 (3, 2), (1, 4), (3, 5), (2, 5), (3, 7),
                                 (5, 8), (8, 3)])
def test_closed_forms_satisfy_the_partial_fraction_recurrence(a, b):
    # 1/(mn) = (a/n + b/m)/(am+bn) gives, exactly and with no oracle,
    # zeta_{a,b}(k1,k2,k3) = a zeta_{a,b}(k1-1,k2,k3+1) + b zeta_{a,b}(k1,k2-1,k3+1)
    for weight in (5, 7, 9):
        for k1 in range(2, weight - 2):
            for k2 in range(2, weight - k1):
                k3 = weight - k1 - k2
                lhs = closed_form(EvalRequest(a, b, k1, k2, k3))
                rhs = (closed_form(EvalRequest(a, b, k1 - 1, k2, k3 + 1)) * a
                       + closed_form(EvalRequest(a, b, k1, k2 - 1, k3 + 1)) * b)
                assert lhs == rhs, (weight, k1, k2, k3)


def test_closed_form_structure():
    # weight-homogeneous; one zeta/Clausen factor per monomial; the pi
    # power is even with zeta/C and odd with S; Clausen denominators
    # divide lcm(a,b)
    for (a, b, k1, k2, k3) in [(1, 2, 1, 1, 3), (2, 3, 1, 2, 4),
                               (2, 5, 1, 1, 5), (3, 4, 2, 2, 3)]:
        k = k1 + k2 + k3
        lcm = a * b // gcd(a, b)
        for mono, _ in closed_form(EvalRequest(a, b, k1, k2, k3)).terms():
            assert mono_weight(mono) == k
            indexed = [(s, e) for s, e in mono if s.kind != "pi"]
            assert len(indexed) == 1 and indexed[0][1] == 1
            sym = indexed[0][0]
            e_pi = sum(e for s, e in mono if s.kind == "pi")
            if sym.kind == "S":
                assert e_pi % 2 == 1
            else:
                assert sym.kind in ("zeta", "C") and e_pi % 2 == 0
            if sym.kind in ("C", "S"):
                assert lcm % sym.angle.denominator == 0
            n = e_pi // 2
            assert 0 <= n <= (k - 3) // 2


def test_weight_homogeneity_check_survives_optimize():
    # the check must raise even where asserts are stripped
    script = ("import tornheim.parity as p\n"
              "p.mono_weight = lambda mono: 0\n"
              "try:\n"
              "    p.closed_form(p.EvalRequest(1, 1, 1, 1, 3))\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n")
    assert "weight homogeneity broken" in run_optimized(script)


def test_odd_power_of_i_check_survives_optimize():
    # at even weight the zeta block lands on odd powers of i; a request
    # built past EvalRequest's weight guard must make closed_form raise,
    # also where asserts are stripped
    script = ("import tornheim.parity as p\n"
              "req = tuple.__new__(p.EvalRequest, (1, 2, 1, 1, 2))\n"
              "try:\n"
              "    p.closed_form(req)\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n")
    assert "odd power i^1" in run_optimized(script)
