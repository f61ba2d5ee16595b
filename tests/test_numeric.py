"""Numeric engine: constants against independent mpmath implementations,
lattice sums against classical anchors, exact recurrences, brute force
and themselves (orientation swap), plus bound honesty.
"""
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from tornheim.constants import (SymbolicValue, PI,
                                clausen_c, clausen_s, dirichlet_l3, zeta)
from tornheim.numeric import (DEFAULT_PRECISION, Precision, PrecisionError,
                              check_values, eval_constant, eval_symbolic,
                              lattice_sum, verify, _partial_fraction_coeffs)
from tornheim import numeric
from tornheim.g2 import G2Request
from tornheim.parity import EvalRequest, closed_form
from tornheim.pfd import G2_FORMS

from conftest import child_env, run_optimized

F = Fraction
PREC = Precision(digits=30, tolerance=1e-12)


# ------------------------------------------------------------- precision

def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(digits=15, tolerance=1e-10)   # no guard digits left
    with pytest.raises(ValueError):
        Precision(digits=30, tolerance=2.0)
    assert Precision(digits=30, tolerance=1e-10).dps == 40
    # digits an int (bools excluded), tolerance a float
    for digits, tolerance in [(30.5, 1e-10), (True, 1e-10), (30, "1e-10"),
                              (30, None)]:
        with pytest.raises(ValueError, match="digits must be an int"):
            Precision(digits, tolerance)


def test_check_values_relative_and_absolute():
    rec = check_values(1.0, 1.0 + 1e-12, DEFAULT_PRECISION, label="x")
    assert rec.passed and rec.label == "x"
    assert not check_values(1.0, 1.0 + 1e-8).passed
    # relative to |rhs| down to the 1e-30 floor, relative to the floor below it
    assert not check_values(1e-25, 3e-25).passed
    assert not check_values(1e-7, 2e-7).passed
    rec = check_values(1e-31, 3e-31)
    assert not rec.passed and rec.rel_residual == "0.2"


def test_check_scale_below_the_floor_tells_right_from_wrong():
    # the series of (8,7;1,1,27) is about 1.8e-32, below the 1e-30 floor:
    # its closed form passes, and twice it fails
    req = EvalRequest(8, 7, 1, 1, 27)
    value = closed_form(req)
    recs = verify({"right": value, "twice": value * 2}, req.factors)
    assert recs["right"].passed and not recs["twice"].passed


# ------------------------------------------------------------- constants

@pytest.mark.parametrize("sym", [
    zeta(2), zeta(7),
    clausen_c(2, F(1, 5)), clausen_c(4, F(2, 5)), clausen_c(3, F(1, 4)),
    clausen_s(2, F(1, 3)), clausen_s(5, F(1, 3)), clausen_s(3, F(3, 8)),
    clausen_c(3, F(2, 7)), clausen_s(4, F(3, 7)),
    clausen_c(2, F(3, 8)), clausen_s(6, F(1, 8)),
])
def test_constants_against_mpmath(sym):
    # clcos/clsin share no code with the Hurwitz-zeta evaluation used here
    with mp.workdps(40):
        got = eval_constant(sym, PREC)
        if sym.kind == "zeta":
            want = mp.zeta(sym.index)
        else:
            fn = mp.clcos if sym.kind == "C" else mp.clsin
            want = fn(sym.index, 2 * mp.pi * mp.mpf(sym.angle.numerator)
                      / sym.angle.denominator)
        assert abs(got - want) <= mp.mpf("1e-33") * (1 + abs(want))


@pytest.mark.parametrize("j", [1, 2, 3, 4, 6, 9, 13])
def test_l3_against_clausen_sum(j):
    # L(j, chi3) = (2/sqrt(3)) S_j(1/3), summing chi3 over one period
    with mp.workdps(40):
        got = eval_constant(dirichlet_l3(j), PREC)
        want = 2 / mp.sqrt(3) * mp.clsin(j, 2 * mp.pi / 3)
        assert abs(got - want) <= mp.mpf("1e-33") * abs(want)


@pytest.mark.parametrize("digits", [20, 30, 50, 80, 120])
def test_zeta_is_the_periodic_sum_at_n_one(digits):
    # zeta(j) = C_j(0) sums zeta(j, 1), which mpmath evaluates by its
    # Riemann zeta path: the bits match mp.zeta(j) exactly
    prec = Precision(digits=digits)
    for j in range(2, 41):
        with mp.workdps(prec.dps):
            assert eval_constant(zeta(j), prec)._mpf_ == mp.zeta(j)._mpf_


def test_eval_symbolic_mixed_value():
    # L(1,chi3) = pi/(3 sqrt3)
    v = SymbolicValue.from_terms([(2, [(dirichlet_l3(1), 1), (PI, 2)])]) \
        - SymbolicValue.from_terms([(F(1, 3), [(zeta(3), 1)])])
    with mp.workdps(40):
        want = 2 * mp.pi ** 3 / (3 * mp.sqrt(3)) - mp.zeta(3) / 3
        assert abs(eval_symbolic(v, PREC) - want) <= mp.mpf("1e-33")


# ------------------------------------------------------ partial fractions

@pytest.mark.parametrize("shifts", [
    [(F(0), 2), (F(1, 2), 1)],
    [(F(1, 3), 3), (F(2), 2)],
    [(F(0), 1), (F(1, 2), 2), (F(3, 2), 2)],
])
def test_partial_fractions_exact(shifts):
    gamma = _partial_fraction_coeffs(shifts)
    for u in (F(1), F(5, 7), F(13, 3)):
        direct = F(1)
        for q, b in shifts:
            direct /= (u + q) ** b
        rebuilt = sum(g / (u + q) ** j for (q, j), g in gamma.items())
        assert rebuilt == direct


def test_partial_fractions_residues_sum_to_zero():
    gamma = _partial_fraction_coeffs([(F(0), 1), (F(1, 2), 1), (F(2), 2)])
    assert sum(g for (q, j), g in gamma.items() if j == 1) == 0


@given(st.dictionaries(st.builds(F, st.integers(0, 12), st.integers(1, 6)),
                       st.integers(1, 5), min_size=1, max_size=4))
def test_partial_fractions_rebuild_the_product(betas):
    shifts = sorted(betas.items())
    gamma = _partial_fraction_coeffs(shifts)
    for u in (F(1), F(5, 7), F(13, 3)):
        direct = F(1)
        for q, b in shifts:
            direct /= (u + q) ** b
        assert sum(g / (u + q) ** j for (q, j), g in gamma.items()) == direct
    if sum(betas.values()) >= 2:
        assert sum(g for (q, j), g in gamma.items() if j == 1) == 0


# ------------------------------------------------------------ lattice sums

def test_classical_anchor_weight_three():
    # sum 1/(m n (m+n)) = 2 zeta(3), Tornheim's classical value
    v, bound, _ = lattice_sum([(1, 0, 1), (0, 1, 1), (1, 1, 1)], PREC)
    with mp.workdps(PREC.dps):
        assert abs(v - 2 * mp.zeta(3)) <= bound + mp.mpf("1e-30")
        assert abs(v - 2 * mp.zeta(3)) <= mp.mpf("1e-13")


def test_classical_anchor_weight_six():
    # sum 1/(m^2 n^2 (m+n)^2) = pi^6 / 2835
    prec = Precision(digits=40, tolerance=1e-30)    # the accuracy asserted
    v = lattice_sum([(1, 0, 2), (0, 1, 2), (1, 1, 2)], prec)[0]
    with mp.workdps(prec.dps):
        assert abs(v - mp.pi ** 6 / 2835) <= mp.mpf("1e-30")


@pytest.mark.parametrize("a,b,k", [(1, 1, (2, 2, 1)), (2, 3, (2, 2, 1)),
                                   (1, 3, (1, 2, 2)), (3, 4, (2, 1, 2))])
def test_exact_recurrence(a, b, k):
    # a m + b n = (a m + b n) gives
    # a T(k1-1,k2,k3+1) + b T(k1,k2-1,k3+1) = T(k1,k2,k3)
    def ev(k1, k2, k3):
        factors = [(cm, cn, e) for (cm, cn), e
                   in zip(((1, 0), (0, 1), (a, b)), (k1, k2, k3)) if e]
        return lattice_sum(factors, PREC)[:2]

    k1, k2, k3 = k
    t, bt = ev(k1, k2, k3)
    t1, b1 = ev(k1 - 1, k2, k3 + 1)
    t2, b2 = ev(k1, k2 - 1, k3 + 1)
    with mp.workdps(PREC.dps):   # keep the combination from rounding at 15 dps
        # tail bounds plus an allowance for float rounding of the heads
        fp_noise = mp.mpf(10) ** (3 - PREC.dps) * abs(t)
        assert abs(a * t1 + b * t2 - t) <= bt + a * b1 + b * b2 + fp_noise


def test_orientation_swap_agrees():
    factors = [(1, 0, 1), (0, 1, 2), (1, 3, 2)]
    v1, b1, _ = lattice_sum(factors, PREC, swap=False)
    v2, b2, _ = lattice_sum(factors, PREC, swap=True)
    with mp.workdps(PREC.dps):
        assert abs(v1 - v2) <= b1 + b2


def test_brute_force_partial_sum_is_a_lower_bound():
    full = lattice_sum(EvalRequest(1, 3, 1, 2, 2).factors, PREC)[0]
    M = 200
    with mp.workdps(25):
        brute = mp.fsum(1 / (mp.mpf(m) * n ** 2 * (m + 3 * n) ** 2)
                        for m in range(1, M + 1) for n in range(1, M + 1))
    assert brute < full
    assert (full - brute) / full < 5.0 / M


def test_bound_is_honest_across_precisions():
    factors = [(1, 0, 1), (0, 1, 1), (2, 3, 3)]
    tight = Precision(digits=45, tolerance=1e-35)
    v_ref, bound_ref, _ = lattice_sum(factors, tight)
    v, bound, _ = lattice_sum(factors, PREC)
    with mp.workdps(tight.dps):
        assert bound_ref <= mp.mpf("1e-35") * abs(v_ref)
        assert abs(v - v_ref) <= bound + bound_ref


def test_cutoff_seed_is_escalated_until_bound_met():
    factors = [(1, 0, 2), (0, 1, 2), (1, 1, 1)]
    doublings_of_seed = [4 << j for j in range(15)]
    v_small, bound, cutoff = lattice_sum(factors, PREC, cutoff=4)
    v_auto, bound_auto, _ = lattice_sum(factors, PREC)
    with mp.workdps(PREC.dps):
        assert bound <= mp.mpf(PREC.tolerance) * abs(v_small)
        assert abs(v_small - v_auto) <= bound + bound_auto
    assert cutoff in doublings_of_seed
    # a tighter tolerance is not met at the seed itself
    _, _, cutoff = lattice_sum(factors, Precision(digits=30, tolerance=1e-20),
                               cutoff=4)
    assert cutoff in doublings_of_seed and cutoff > 4


def test_negative_cutoff_is_rejected():
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        lattice_sum([(1, 0, 2), (0, 1, 2), (1, 1, 1)], PREC, cutoff=-3)


@pytest.mark.parametrize("order", [-1, -5])
def test_negative_order_is_rejected(order):
    with pytest.raises(ValueError, match=f"order must be >= 0, not {order}"):
        lattice_sum([(1, 0, 2), (0, 1, 2), (1, 1, 1)], order=order)


def test_order_zero_bounds_its_one_term_tail():
    # the tail keeps only zeta(r0, M+1) and zeta(r0+1, M+1); the first
    # Bernoulli term is the omitted one, and it bounds the true error
    factors = [(1, 0, 2), (0, 1, 2), (1, 1, 1)]
    value, bound, cutoff = lattice_sum(factors, order=0)
    exact = lattice_sum(factors, Precision(digits=50, tolerance=1e-40))[0]
    assert cutoff == 80
    with mp.workdps(50):
        assert abs(value - exact) <= bound <= mp.mpf("1e-10") * abs(exact)


def test_zero_cutoff_is_rejected():
    # a cutoff of 0 never doubles past the budget, so a regression hangs:
    # the child's timeout turns that into a failure
    script = ("import tornheim.numeric as n\n"
              "try:\n"
              "    n.lattice_sum([(1, 0, 2), (0, 1, 2), (1, 1, 1)], cutoff=0)\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "cutoff must be >= 1, not 0\n"


def test_unreachable_tolerance_raises(monkeypatch):
    monkeypatch.setattr(numeric, "_MAX_CUTOFF", 64)
    with pytest.raises(PrecisionError):
        lattice_sum([(1, 0, 1), (0, 1, 1), (1, 50, 3)],
                    Precision(digits=40, tolerance=1e-25), order=1)


def test_divergent_inputs_rejected():
    with pytest.raises(ValueError):
        lattice_sum([(1, 0, 5), (0, 1, 1)], PREC)   # inner sum diverges
    with pytest.raises(ValueError):
        lattice_sum([(1, 0, 1), (0, 1, 5)], PREC)
    with pytest.raises(ValueError):
        lattice_sum([(1, 1, 2)], PREC)
    with pytest.raises(ValueError):
        lattice_sum([(1, 0, 2), (0, 1, 0)], PREC)   # bad exponent
    with pytest.raises(ValueError):
        lattice_sum([(-1, 1, 2), (1, 0, 2)], PREC)
    # every entry of a factor is an int, bools excluded
    for factors in ([(1, 0, 2), (0, 1, 1.5), (1, 1, 1)],
                    [(1.0, 0, 2), (0, 1, 2), (1, 1, 1)],
                    [(1, 0, True), (0, 1, 2), (1, 1, 1)]):
        with pytest.raises(ValueError, match="bad factor"):
            lattice_sum(factors, PREC)


def test_convergence_and_residue_checks_survive_optimize():
    # the guards are raises, not asserts: under python -O a sum that
    # diverges inner, outer, or through its shift 0, and a partial
    # fraction whose residues do not cancel, must still raise
    script = ("import tornheim.numeric as n\n"
              "for factors in ([(1, 0, 5), (0, 1, 1)], [(1, 1, 2)],\n"
              "                [(0, 1, 2), (1, 1, 1)]):\n"
              "    try:\n"
              "        n.lattice_sum(factors)\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n"
              "exact = n._partial_fraction_coeffs\n"
              "def broken(shifts):\n"
              "    out = exact(shifts)\n"
              "    out[(0, 1)] += 1\n"
              "    return out\n"
              "n._partial_fraction_coeffs = broken\n"
              "try:\n"
              "    n.lattice_sum([(1, 0, 2), (0, 1, 2), (1, 1, 1)])\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n")
    assert run_optimized(script).splitlines() == [
        "inner sum does not converge", "outer sum does not converge",
        "outer sum does not converge",
        "residues of the 1/u parts do not sum to zero"]


def test_gcd_is_folded_out_of_forms():
    v1, b1, _ = lattice_sum([(1, 0, 2), (0, 1, 2), (2, 4, 2)], PREC)
    v2, b2, _ = lattice_sum([(1, 0, 2), (0, 1, 2), (1, 2, 2)], PREC)
    with mp.workdps(PREC.dps):
        assert abs(v1 - v2 / 4) <= b1 + b2 / 4


def test_verify_records_share_one_oracle_value():
    # sum 1/(m n (m+n)) = 2 zeta(3); a wrong value fails on its own record
    right = SymbolicValue.from_terms([(2, [(zeta(3), 1)])])
    wrong = SymbolicValue.from_terms([(F(201, 100), [(zeta(3), 1)])])
    recs = verify({"right": right, "wrong": wrong},
                  EvalRequest(1, 1, 1, 1, 1).factors, PREC)
    assert list(recs) == ["right", "wrong"]
    assert [r.label for r in recs.values()] == ["right vs series",
                                                "wrong vs series"]
    assert recs["right"].passed and not recs["wrong"].passed
    assert recs["right"].rhs == recs["wrong"].rhs
    assert recs["right"].cutoff == recs["wrong"].cutoff >= 40


@pytest.fixture
def hurwitz_table():
    """The shared `_hurwitz` table, emptied for the test and restored after."""
    table = numeric._hurwitz_table
    saved = dict(table)
    table.clear()
    yield table
    table.clear()
    table.update(saved)


def _hurwitz_evaluations(monkeypatch, shared):
    """(order, argument) of every mp.zeta and mp.psi call that `_hurwitz`
    makes for the shared table (shared=True) or for a `lattice_sum` call's
    head table, order 1 standing for psi."""
    calls, recording = [], [False]
    plain_hurwitz, plain_zeta, plain_psi = numeric._hurwitz, mp.zeta, mp.psi

    def hurwitz(j, x, dps, derivative=0, table=numeric._hurwitz_table):
        recording[0] = (table is numeric._hurwitz_table) == shared
        try:
            return plain_hurwitz(j, x, dps, derivative, table)
        finally:
            recording[0] = False

    def zeta(s, a=1, *args, **kwargs):
        if recording[0]:
            calls.append((s, a))
        return plain_zeta(s, a, *args, **kwargs)

    def psi(order, x, **kwargs):
        if recording[0]:
            calls.append((1, x))
        return plain_psi(order, x, **kwargs)

    monkeypatch.setattr(numeric, "_hurwitz", hurwitz)
    monkeypatch.setattr(mp, "zeta", zeta)
    monkeypatch.setattr(mp, "psi", psi)
    return calls


@pytest.mark.parametrize("factors", [
    G2Request((1, 1, 1, 1, 1, 2)).factors,
    EvalRequest(2, 3, 1, 2, 2).factors,
], ids=["g2", "tornheim"])
def test_tail_table_is_shared_and_exact(monkeypatch, hurwitz_table, factors):
    at_tail_point = _hurwitz_evaluations(monkeypatch, shared=True)
    cold = lattice_sum(factors, PREC)
    # the shared table's only lattice-sum values are the tail's zeta(r, M+1)
    assert cold[2] == 40 and at_tail_point
    assert all(x == 41 for _, x in at_tail_point)
    at_tail_point.clear()
    warm = lattice_sum(factors, PREC)
    assert warm == cold
    assert at_tail_point == []

    # a 60-digit call must not read the 40-digit entries: make them wrong
    strict = Precision(50, 1e-35)
    for key in hurwitz_table:
        hurwitz_table[key] *= 2
    over_wrong = lattice_sum(factors, strict)
    hurwitz_table.clear()
    assert over_wrong == lattice_sum(factors, strict)


@pytest.fixture
def head_calls(monkeypatch):
    """(order, argument) of every mp.zeta and mp.psi call the head makes,
    order 1 standing for psi; the shared table's calls are left out."""
    return _hurwitz_evaluations(monkeypatch, shared=False)


def test_g2_head_evaluates_each_argument_once(head_calls, hurwitz_table):
    # lattice_sum sums the request's m exactly, so m, m+n, m+2n, m+3n and
    # 2m+3n of (1,1,2,2,2,3) give the shifts 0, 1, 2, 3, 3/2 with exponents
    # 1, 2, 2, 2, 3, and the head's arguments 1+qx (x the outer variable)
    # coincide often, e.g. 1+24 = 1+2*12 = 1+3*8 = 1+(3/2)*16
    _, _, M = lattice_sum(G2Request((1, 1, 2, 2, 2, 3)).factors, PREC)
    shifts = {F(1): 2, F(2): 2, F(3): 2, F(3, 2): 3}
    needed = {(j, 1 + q * m) for q, beta in shifts.items()
              for j in range(1, beta + 1) for m in range(1, M + 1)}
    assert len(head_calls) == len(needed) < M * sum(shifts.values())
    assert {(j, F(int(2 * x), 2)) for j, x in head_calls} == needed
    # head values live for one call: none is in the shared table, and the
    # next call evaluates each again
    assert all(x == M + 1 for _, x, _, _ in hurwitz_table)
    head_calls.clear()
    lattice_sum(G2Request((1, 1, 2, 2, 2, 3)).factors, PREC)
    assert len(head_calls) == len(needed)


def test_eval_head_calls_are_unchanged(head_calls):
    # one nonzero shift, 3/2 with exponent 4: four calls per m, none shared;
    # the shift 0 (the exponent 1 of m) is summed exactly and calls nothing
    _, _, M = lattice_sum(EvalRequest(2, 3, 1, 2, 4).factors, PREC)
    assert len(head_calls) == len(set(head_calls)) == 4 * M
    assert sum(j >= 2 for j, _ in head_calls) == 3 * M


def test_escalated_call_evaluates_no_argument_twice(head_calls):
    # psi(1+m) for m up to the final cutoff, once each over every pass
    # from the seed 4 up; the shift 0 is summed exactly and calls nothing
    factors = [(1, 0, 2), (0, 1, 2), (1, 1, 1)]
    _, _, M = lattice_sum(factors, Precision(digits=30, tolerance=1e-20),
                          cutoff=4)
    assert M > 4
    assert len(head_calls) == len(set(head_calls)) == M


def test_shift_zero_is_summed_exactly(head_calls):
    # sum 1/(m^3 n^2) = zeta(2) zeta(3): the only inner shift is 0, so the
    # outer sum is exact, with no head value, no tail and no bound
    value, bound, _ = lattice_sum([(1, 0, 3), (0, 1, 2)], PREC)
    assert head_calls == []
    assert bound == 0
    with mp.workdps(PREC.dps):
        assert abs(value / (mp.zeta(2) * mp.zeta(3)) - 1) < mp.mpf("1e-38")


def test_zero_tail_coefficients_evaluate_nothing(monkeypatch, hurwitz_table):
    # the only inner shift is 0, so every tail coefficient is zero and no
    # zeta(r, M+1) or zeta'(r, M+1) may be evaluated
    points = _hurwitz_evaluations(monkeypatch, shared=True)
    lattice_sum([(1, 0, 3), (0, 1, 2)], PREC)
    assert points == [] and hurwitz_table == {}


def test_constants_share_hurwitz_values(monkeypatch, hurwitz_table):
    # C_j and S_j at the canonical angles 1/4, 1/8 and 3/8 read
    # zeta(j, r/8), r = 1..8: one mp.zeta call per distinct reduced r/N
    eval_constant.cache_clear()
    calls = []
    plain_zeta = mp.zeta

    def zeta(s, a=1, *args, **kwargs):
        calls.append((s, a))
        return plain_zeta(s, a, *args, **kwargs)

    monkeypatch.setattr(mp, "zeta", zeta)
    for j in (2, 3):
        for q in (F(1, 4), F(1, 8), F(3, 8)):
            eval_constant(clausen_c(j, q), PREC)
            eval_constant(clausen_s(j, q), PREC)
    assert len(calls) == 16
    assert {(j, F(int(8 * x), 8)) for j, x in calls} == {
        (j, F(r, 8)) for j in (2, 3) for r in range(1, 9)}


def test_zero_periodic_weights_read_no_hurwitz_value(monkeypatch, hurwitz_table):
    # sin(2 pi r/4) is 0 at r = 2, 4 and cos(2 pi r/8) at r = 2, 6: S_3(1/4)
    # reads zeta(3, 1/4) and zeta(3, 3/4) only, C_3(1/8) six values
    eval_constant.cache_clear()
    calls = []
    plain_zeta = mp.zeta

    def zeta(s, a=1, *args, **kwargs):
        calls.append((s, F(int(8 * a), 8)))
        return plain_zeta(s, a, *args, **kwargs)

    monkeypatch.setattr(mp, "zeta", zeta)
    eval_constant(clausen_s(3, F(1, 4)), PREC)
    assert calls == [(3, F(1, 4)), (3, F(3, 4))]
    calls.clear()
    eval_constant(clausen_c(3, F(1, 8)), PREC)
    assert calls == [(3, F(r, 8)) for r in (1, 3, 4, 5, 7, 8)]


def test_eval_g2_series_matches_brute_force():
    # weight 6, so straight from the forms: G2Request takes odd weight only
    full = lattice_sum([(f.cm, f.cn, 1) for f in G2_FORMS], PREC)[0]
    M = 160
    with mp.workdps(25):
        brute = mp.fsum(
            1 / (mp.mpf(m) * n * (m + n) * (m + 2 * n) * (m + 3 * n)
                 * (2 * m + 3 * n))
            for m in range(1, M + 1) for n in range(1, M + 1))
    assert brute < full
    assert (full - brute) / full < mp.mpf("1e-6")
