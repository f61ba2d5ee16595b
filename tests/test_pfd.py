"""Partial-fraction rewriting: the atomic split, exact step verification,
the trace's relations, and the full reducer."""
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tornheim import pfd
from tornheim.constants import PI, SymbolicValue, zeta
from tornheim.g2 import G2Request, request_term_sum
from tornheim.numeric import Precision, verify
from tornheim.parity import EvalRequest, closed_form
from tornheim.pfd import (FORM_M, FORM_N, G2_FORMS, G2_TARGETS, LinearForm,
                          TermProduct, TermSum, reduce_to_tornheim, split_pair,
                          tornheim_parameters, trace_to_json, verify_step)

from conftest import run_optimized

F = Fraction
U, W = LinearForm(1, 1), LinearForm(1, 2)


def tp(coeff, *pairs):
    return TermProduct.make(coeff, list(pairs))


def forms(t):
    return [f for f, _ in t.exponents]


def name(f):
    # m+n, 2m+3n, n: the form as the test ids spell it
    return "+".join(f"{'' if c == 1 else c}{x}" for c, x in ((f.cm, "m"), (f.cn, "n")) if c)


# ---------------------------------------------------------------- forms

def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearForm(-1, 2)
    with pytest.raises(ValueError):
        LinearForm(0, 0)
    with pytest.raises(ValueError):
        LinearForm(2, 4)        # not primitive


# ---------------------------------------------------------------- terms

def test_term_product_make_merges_and_sorts():
    t = tp(F(1, 2), (W, 1), (U, 2), (U, 1))
    assert t.exponent(U) == 3
    assert t.weight == 4
    assert forms(t) == [U, W]
    with pytest.raises(ValueError):
        tp(1, (U, -1))


def test_term_sum_merges_like_terms():
    ts = TermSum.make([tp(1, (U, 1)), tp(2, (U, 1)), tp(-3, (W, 1))])
    assert [(t.coeff, forms(t)) for t in ts] == [(3, [U]), (-3, [W])]
    zero = TermSum.make([tp(1, (U, 1)), tp(-1, (U, 1))])
    assert not tuple(zero)


# ---------------------------------------------------------------- splits

def test_split_pair_by_hand():
    # 2(m+n) - (m+2n) = m:  1/(uw) = (1/m)(2/w - 1/u)
    out = split_pair(tp(1, (U, 1), (W, 1)), U, W)
    assert TermSum.make([tp(-1, (FORM_M, 1), (U, 1)),
                         tp(2, (FORM_M, 1), (W, 1))]) == out
    assert verify_step(TermSum.make([tp(1, (U, 1), (W, 1))]), out)


def _split_by_paths(t, u, w):
    # reference: walk every path of 1/(uw) = (1/(cm))(alpha/w + beta/u),
    # C(r+s, r) of them, until one of u, w is gone from each branch
    alpha, beta = w.cn, -u.cn
    c = u.cm * w.cn - u.cn * w.cm
    assert c and alpha * u.cm + beta * w.cm == c     # alpha u + beta w = c m
    assert alpha * u.cn + beta * w.cn == 0
    r, s = t.exponent(u), t.exponent(w)
    rest = [(f, e) for f, e in t.exponents if f != u and f != w]
    out = []
    stack = [(t.coeff, r, s, 0)]
    while stack:
        coeff, eu, ew, ev = stack.pop()
        if eu == 0 or ew == 0:
            out.append(TermProduct.make(
                coeff, rest + [(FORM_M, ev), (u, eu), (w, ew)]))
        else:
            stack.append((coeff * F(alpha, c), eu - 1, ew, ev + 1))
            stack.append((coeff * F(beta, c), eu, ew - 1, ev + 1))
    return TermSum.make(out)


# the pairs' scales c include +-1, +-2 and +-3; a pair with n in it
# trades n for m
WITH_N = [(FORM_N, U), (W, FORM_N), (FORM_N, LinearForm(2, 3)),
          (LinearForm(1, 3), FORM_N)]


@pytest.mark.parametrize("u,w", [
    pytest.param(u, w, id=f"{name(u)},{name(w)}")
    for u, w in [(u, w) for u in G2_TARGETS for w in G2_TARGETS if u != w]
    + WITH_N])
def test_split_pair_matches_the_path_walk(u, w):
    for r in range(1, 8):
        for s in range(1, 8):
            # every other term also carries powers of m and n, which merge
            # with the eliminator's, and with n where the pair holds it
            extra = [(FORM_M, 2), (FORM_N, 3)] if (r + s) % 2 else []
            t = tp(F(-5, 3), (u, r), (w, s), *extra)
            out = split_pair(t, u, w)
            assert out == _split_by_paths(t, u, w)
            assert len(out.terms) <= t.exponent(u) + t.exponent(w)


def test_split_pair_requires_both_forms():
    with pytest.raises(ValueError):
        split_pair(tp(1, (U, 2)), U, W)
    with pytest.raises(ValueError):
        split_pair(tp(1, (U, 1), (W, 1)), U, U)


def test_split_preserves_weight_and_drops_pair():
    t = tp(F(3, 7), (FORM_M, 2), (U, 2), (W, 3))
    out = split_pair(t, U, W)
    for piece in out:
        assert piece.weight == t.weight
        assert piece.exponent(U) == 0 or piece.exponent(W) == 0
    assert verify_step(TermSum.make([t]), out)


def test_verify_step_catches_wrong_coefficient():
    t = tp(1, (U, 1), (W, 1))
    out = split_pair(t, U, W)
    bad = TermSum(tuple(TermProduct(2 * p.coeff, p.exponents) for p in out))
    assert not verify_step(TermSum.make([t]), bad)
    missing = TermSum.make(list(out)[:1])
    assert not verify_step(TermSum.make([t]), missing)


def _verify_by_expansion(before, after):
    # reference: expand both sides over the common denominator and compare
    # the numerators as polynomials in Q[m,n]
    def poly_mul(p1, p2):
        out = {}
        for (a1, b1), v1 in p1.items():
            for (a2, b2), v2 in p2.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, F(0)) + v1 * v2
        return out

    def form_power(form, e):
        return {(i, e - i): F(comb(e, i) * form.cm ** i * form.cn ** (e - i))
                for i in range(e + 1) if form.cm ** i * form.cn ** (e - i)}

    degrees = {}
    for t in tuple(before) + tuple(after):
        for f, e in t.exponents:
            degrees[f] = max(degrees.get(f, 0), e)

    def numerator(ts):
        acc = {}
        for t in ts:
            poly = {(0, 0): t.coeff}
            for f, dmax in degrees.items():
                need = dmax - t.exponent(f)
                if need:
                    poly = poly_mul(poly, form_power(f, need))
            for k, v in poly.items():
                acc[k] = acc.get(k, F(0)) + v
        return {k: v for k, v in acc.items() if v}

    return numerator(before) == numerator(after)


def _falling(d):
    # the coefficients a_0..a_d of prod_{i=1..d} (m - i)
    a = [F(1)]
    for i in range(1, d + 1):
        a = [(a[k - 1] if k else 0) - i * (a[k] if k < len(a) else 0)
             for k in range(len(a) + 1)]
    return a


@pytest.mark.parametrize("before, after, want", [
    # numerator prod (m - i) vanishes at m = 1..D: D points are not enough
    *[pytest.param(TermSum.make([tp(a, (FORM_M, d - k), (FORM_N, k))
                                 for k, a in enumerate(_falling(d))]),
                   TermSum.make([]), False, id=f"falling-{d}")
      for d in (1, 3, 6)],
    # equal at n = 1, but of different weights
    pytest.param(TermSum.make([tp(1, (FORM_M, 2))]),
                 TermSum.make([tp(1, (FORM_M, 2), (FORM_N, 1))]), False,
                 id="weights"),
    pytest.param(TermSum.make([tp(1, (FORM_M, 1), (FORM_N, 1)),
                               tp(-1, (FORM_M, 1), (U, 1)),
                               tp(-1, (FORM_N, 1), (U, 1))]),
                 TermSum.make([]), True, id="1/(mn)"),
])
def test_verify_step_exact_cases(before, after, want):
    assert verify_step(before, after) is want
    assert _verify_by_expansion(before, after) is want


HYP_FORMS = G2_FORMS + (LinearForm(2, 1), LinearForm(3, 5))
hyp_sums = st.lists(st.builds(
    lambda c, exps: TermProduct.make(c, zip(HYP_FORMS, exps)),
    st.fractions(-9, 9, max_denominator=9),
    st.lists(st.integers(0, 4), min_size=len(HYP_FORMS),
             max_size=len(HYP_FORMS))), min_size=1, max_size=5)


def _split_first(ts):
    # ts with its first term that has two forms in n split through m
    for i, t in enumerate(ts):
        in_n = [f for f in forms(t) if f.cn]
        if len(in_n) >= 2:
            u, w = in_n[:2]
            produced = split_pair(t, u, w)
            return ts[:i] + list(produced) + ts[i + 1:]
    return list(ts)


@settings(deadline=None)
@given(hyp_sums, hyp_sums,
       st.sampled_from(["other", "split", "perturb", "drop", "reweight"]),
       st.data())
def test_verify_step_matches_expansion(terms, other, kind, data):
    before = TermSum.make(terms)
    after = _split_first(list(before))
    if kind == "other":
        after = other
    elif after and kind != "split":
        i = data.draw(st.integers(0, len(after) - 1))
        t = after[i]
        if kind == "perturb":
            delta = data.draw(st.fractions(1, 3, max_denominator=3))
            t = TermProduct(t.coeff + delta, t.exponents)
        elif kind == "reweight":     # same value at n = 1, weight one higher
            t = TermProduct.make(t.coeff, t.exponents + ((FORM_N, 1),))
        after = after[:i] + ([] if kind == "drop" else [t]) + after[i + 1:]
    after = TermSum(after)
    want = _verify_by_expansion(before, after)
    assert verify_step(before, after) is want
    assert want or kind != "split"      # a split is always an identity


# --------------------------------------------------------------- reducer

def test_reduce_full_g2_product():
    ts = TermSum.make([tp(1, *[(f, 1) for f in G2_FORMS], (FORM_M, 1))])
    trace = []
    out = reduce_to_tornheim(ts, trace=trace)
    for t in out:
        nonbasis = [f for f in forms(t) if f not in (FORM_M, FORM_N)]
        assert len(nonbasis) == 1 and nonbasis[0] in G2_TARGETS
        assert t.exponent(FORM_M) >= 1 and t.exponent(FORM_N) >= 1
        assert t.weight == 7
    assert trace                        # something actually happened
    assert verify_step(ts, out)         # end-to-end exact identity


def test_reduce_is_deterministic():
    ts = TermSum.make([tp(1, (FORM_M, 1), (FORM_N, 1), (U, 1), (W, 2),
                          (LinearForm(2, 3), 1))])
    assert reduce_to_tornheim(ts) == reduce_to_tornheim(ts)


def _g2_requests(weight):
    return [ks for ks in itertools.product(range(1, weight - 4), repeat=6)
            if sum(ks) == weight]


@pytest.mark.parametrize("ks", _g2_requests(9) + [(7, 7, 7, 7, 7, 8)])
def test_reduce_splits_each_exponent_tuple_once(ks):
    # equal terms are merged before they are split, so no two steps of a
    # reduction split the same product of forms
    ts = TermSum.make([TermProduct.make(1, list(zip(G2_FORMS, ks)))])
    trace = []
    reduce_to_tornheim(ts, trace=trace)
    split = [st.term.exponents for st in trace]
    assert trace and len(set(split)) == len(split)


M_N = LinearForm(2, 1)      # 2m+n, outside the G2 forms


@pytest.mark.parametrize("factors, want", [
    ([(FORM_M, 1), (FORM_N, 1), (U, 1), (M_N, 2)], SymbolicValue.from_terms(
        [(F(35, 8), [(zeta(5), 1)]), (F(-3, 8), [(PI, 2), (zeta(3), 1)])])),
    ([(FORM_M, 1), (FORM_N, 2), (LinearForm(3, 2), 1), (LinearForm(1, 4), 1)],
     None),
    ([(FORM_M, 2), (FORM_N, 1), (U, 1), (W, 1), (M_N, 1), (LinearForm(3, 5), 1)],
     None),
], ids=["m.n.(m+n).(2m+n)^2", "m.n^2.(3m+2n).(m+4n)",
        "m^2.n.(m+n)(m+2n)(2m+n)(3m+5n)"])
def test_reduce_takes_any_product_of_forms(factors, want):
    # products outside the G2 forms reduce exactly, and the closed forms of
    # the reduced terms sum to the oracle's value of the product
    ts = TermSum.make([tp(1, *factors)])
    out = reduce_to_tornheim(ts)
    assert verify_step(ts, out)
    value = SymbolicValue.zero()
    for t in out:
        value = value + closed_form(EvalRequest(*tornheim_parameters(t))) * t.coeff
    check = verify({"sum": value}, [(f.cm, f.cn, e) for f, e in factors],
                   Precision(50, 1e-35))["sum"]
    assert check.passed, check
    assert want is None or value == want


def test_reduce_needs_a_power_of_n():
    ts = TermSum.make([tp(1, (FORM_M, 1), (U, 1), (M_N, 1))])
    with pytest.raises(ValueError, match="not in double-series shape"):
        reduce_to_tornheim(ts)


def test_reduce_watchdog_stops_cycling_relations(monkeypatch):
    # a split that makes no progress: the set of forms never shrinks, and
    # the shape check on the result rejects the terms left after the last
    # level
    V3 = LinearForm(1, 3)
    ts = TermSum.make([tp(1, (FORM_M, 1), (FORM_N, 1),
                          (U, 1), (W, 1), (V3, 1))])
    monkeypatch.setattr(pfd, "split_pair", lambda t, u, w: TermSum((t,)))
    with pytest.raises(ValueError, match="not in double-series shape"):
        reduce_to_tornheim(ts)


def test_trace_json_shape():
    ts = TermSum.make([tp(F(-2, 3), (FORM_M, 1), (FORM_N, 1), (U, 1), (W, 1))])
    trace = []
    reduce_to_tornheim(ts, trace=trace)
    data = trace_to_json(trace)
    assert data
    step = data[0]
    assert set(step) == {"term", "pair", "relation", "produced"}
    assert step["relation"]["v"] == [1, 0]
    assert all(set(t) == {"coeff", "factors"} for t in step["produced"])


def test_trace_json_relation_values():
    # each step's relation alpha u + beta w = c m has c > 0 and the pair's
    # n-coefficients, crossed, as |alpha| and |beta|
    requests = _g2_requests(9)
    assert len(requests) == 56
    trace = []
    for ks in requests:
        reduce_to_tornheim(request_term_sum(G2Request(ks)), trace=trace)
    steps = trace_to_json(trace)
    assert steps
    for step in steps:
        (ucm, ucn), (wcm, wcn) = step["pair"]
        rel = step["relation"]
        alpha, beta = int(rel["alpha"]), int(rel["beta"])
        assert rel["v"] == [1, 0]
        assert alpha * ucn + beta * wcn == 0
        assert alpha * ucm + beta * wcm > 0
        assert (abs(alpha), abs(beta)) == (wcn, ucn)


def test_random_products_reduce_verified():
    # seeded sample of in-contract products; every traced step re-verified
    # as an exact identity, plus the end-to-end identity
    rng = random.Random(411)
    for _ in range(60):
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
            assert verify_step(TermSum.make([st.term]), st.produced)
        assert verify_step(TermSum.make([t]), out)


# reduce_to_tornheim proves each reduction once, end to end, by one
# verify_step; the tests below pin that proof

HEAVY = [(1, 1, 1, 1, 1, 38), (7, 7, 7, 7, 7, 8), (5, 5, 5, 5, 5, 6),
         (1, 2, 4, 7, 10, 1)]


@pytest.mark.parametrize("ks", HEAVY)
def test_end_to_end_check_rejects_broken_large_reduction(ks):
    ts = request_term_sum(G2Request(ks))
    reduced = list(reduce_to_tornheim(ts))
    first = reduced[0]
    scaled = TermProduct(first.coeff * (1 + F(1, 10 ** 12)), first.exponents)
    assert verify_step(ts, TermSum(reduced)) is True
    assert verify_step(ts, TermSum(reduced[:-1])) is False
    assert verify_step(ts, TermSum([scaled] + reduced[1:])) is False


def test_wrong_split_makes_reducer_raise(monkeypatch):
    split = pfd.split_pair

    def wrong(*args):
        out = split(*args)
        t = TermProduct(2 * out[0].coeff, out[0].exponents)
        return TermSum((t,) + out[1:])

    monkeypatch.setattr(pfd, "split_pair", wrong)
    with pytest.raises(RuntimeError, match="exact verification"):
        reduce_to_tornheim(request_term_sum(G2Request((1, 1, 1, 1, 1, 2))))


def test_wrong_split_makes_reducer_raise_under_optimize():
    # the check must raise even where asserts are stripped
    script = ("import tornheim.pfd as p\n"
              "from tornheim.g2 import G2Request, request_term_sum\n"
              "split = p.split_pair\n"
              "def wrong(*args):\n"
              "    out = split(*args)\n"
              "    t = p.TermProduct(2 * out[0].coeff, out[0].exponents)\n"
              "    return p.TermSum((t,) + out[1:])\n"
              "p.split_pair = wrong\n"
              "try:\n"
              "    p.reduce_to_tornheim(request_term_sum(G2Request((1, 1, 1, 1, 1, 2))))\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n")
    assert "exact verification" in run_optimized(script)
