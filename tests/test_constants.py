"""Symbolic constant algebra: canonical monomials, angle reduction,
basis conversion, printing and serialization.

Angle-reduction rules are checked against mpmath's clsin/clcos, an
implementation of the same Clausen values that shares no code with the
package's own Hurwitz-zeta evaluator.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from tornheim import constants
from tornheim.constants import (BaseConstant, PI, SymbolicValue, clausen_c,
                                clausen_s, dirichlet_l3, exact_L_rational,
                                from_json, g2_field_error, mono_weight,
                                reduce_angle, to_dirichlet_basis, to_json,
                                to_latex, to_text, zeta)
from tornheim.numeric import DEFAULT_PRECISION, eval_constant, eval_symbolic

F = Fraction


def sv(coeff, *factors):
    return SymbolicValue.from_terms([(coeff, list(factors))])


# ------------------------------------------------------- canonical symbols

def test_base_constant_validation():
    with pytest.raises(ValueError):
        BaseConstant("zeta", 1)
    with pytest.raises(ValueError):
        BaseConstant("L3", 0)
    with pytest.raises(ValueError):
        BaseConstant("pi", 2)
    with pytest.raises(ValueError):
        BaseConstant("C", 1, F(1, 5))
    with pytest.raises(ValueError):
        BaseConstant("C", 4, F(3, 5))       # not reflected
    with pytest.raises(ValueError):
        BaseConstant("C", 4, F(1, 3))       # reducible to zeta
    with pytest.raises(ValueError):
        BaseConstant("C", 4, F(1, 6))
    with pytest.raises(ValueError):
        BaseConstant("S", 4, F(1, 6))
    with pytest.raises(ValueError):
        BaseConstant("evenzeta", 4)
    with pytest.raises(ValueError):
        BaseConstant("i")                   # the ring holds reals only
    with pytest.raises(ValueError):
        BaseConstant("sqrt3")               # only the Dirichlet rewrite counts it
    BaseConstant("S", 2, F(1, 3))
    BaseConstant("C", 2, F(1, 5))


def test_monomial_normalization():
    assert sv(2, (PI, 1), (PI, 2)) == sv(2, (PI, 3))
    assert sv(2, (PI, 1), (PI, -1), (zeta(3), 1)) == sv(2, (zeta(3), 1))
    with pytest.raises(ValueError):
        SymbolicValue.from_terms([(2, [(PI, -1), (zeta(3), 1)])])


def test_from_terms_equals_the_sum_of_its_terms():
    s2 = clausen_s(2, F(1, 3))
    terms = [(2, [(zeta(3), 1)]), (F(1, 2), [(s2, 1), (PI, 1)]),
             (-2, [(zeta(3), 1)]), (1, [(PI, 1), (s2, 1)]),
             (0, [(zeta(5), 1)]), (F(-1, 3), [(s2, 2), (PI, 2)])]
    total = SymbolicValue.zero()
    for coeff, factors in terms:
        total = total + SymbolicValue.from_terms([(coeff, factors)])
    built = SymbolicValue.from_terms(terms)
    assert built == total == (sv(F(3, 2), (PI, 1), (s2, 1))
                              + sv(F(-1, 3), (s2, 2), (PI, 2)))
    assert built.terms() == total.terms()


def test_algebra_ring_axioms():
    # a value is a vector over monomials: sums and rational multiples only
    x = sv(2, (zeta(3), 1)) + sv(F(1, 2), (PI, 1))
    y = sv(1, (PI, 2)) - SymbolicValue.from_terms([(3, [])])
    z = sv(F(-1, 3), (clausen_s(2, F(1, 3)), 1), (PI, 1))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert F(2, 3) * (x + y) == F(2, 3) * x + F(2, 3) * y
    assert (x + y) * 5 == x * 5 + 5 * y
    assert x - x == SymbolicValue.zero()
    assert 0 * x == SymbolicValue.zero() == x * F(0)
    with pytest.raises(TypeError):
        x * y


# --------------------------------------------------------- angle reduction

def _clausen_ref(kind, j, q):
    # independent reference: mpmath Clausen sums
    fn = mp.clcos if kind == "C" else mp.clsin
    return fn(j, 2 * mp.pi * mp.mpf(q.numerator) / q.denominator)


@pytest.mark.parametrize("kind", ["C", "S"])
@pytest.mark.parametrize("j", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 6),
                               F(5, 6), F(1, 4), F(3, 4), F(1, 5), F(7, 5),
                               F(-1, 3), F(11, 6), F(2, 5), F(3, 8)])
def test_reduce_angle_against_mpmath(kind, j, q):
    with mp.workdps(35):
        got = eval_symbolic(reduce_angle(kind, j, q))
        want = _clausen_ref(kind, j, q % 1)
        assert abs(got - want) <= mp.mpf("1e-30") * (1 + abs(want))


def test_reduce_angle_canonical_forms():
    assert reduce_angle("S", 4, F(0)).is_zero
    assert reduce_angle("S", 4, F(1, 2)).is_zero
    assert reduce_angle("C", 4, F(0)) == sv(1, (zeta(4), 1))
    assert reduce_angle("C", 4, F(1, 2)) == sv(F(1, 8) - 1, (zeta(4), 1))
    assert reduce_angle("C", 3, F(1, 3)) == sv(F(1 - 9, 2 * 9), (zeta(3), 1))
    assert reduce_angle("C", 3, F(1, 6)) == sv(
        (F(1, 4) - 1) * F(-8, 18), (zeta(3), 1))
    assert reduce_angle("S", 3, F(1, 6)) == sv(
        F(5, 4), (clausen_s(3, F(1, 3)), 1))
    assert reduce_angle("S", 3, F(2, 3)) == sv(-1, (clausen_s(3, F(1, 3)), 1))
    assert reduce_angle("C", 5, F(7, 5)) == sv(1, (clausen_c(5, F(2, 5)), 1))
    with pytest.raises(ValueError):
        reduce_angle("C", 1, F(1, 5))
    with pytest.raises(ValueError):
        reduce_angle("X", 3, F(1, 5))


@given(st.integers(2, 7),
       st.fractions(min_value=-2, max_value=2, max_denominator=12))
def test_reduce_angle_periodicity_and_reflection(j, q):
    q = F(q)
    assert reduce_angle("C", j, q) == reduce_angle("C", j, q + 1)
    assert reduce_angle("C", j, -q) == reduce_angle("C", j, q)
    assert reduce_angle("S", j, -q) == -reduce_angle("S", j, q)


# ----------------------------------------------------------- L(j, chi3)

def test_exact_l_rational_table():
    assert exact_L_rational(1) == F(1, 9)
    assert exact_L_rational(3) == F(4, 243)
    assert exact_L_rational(5) == F(4, 2187)
    with pytest.raises(ValueError):
        exact_L_rational(2)


@pytest.mark.parametrize("j", [1, 3, 5, 7, 9])
def test_exact_l_value_numeric(j):
    with mp.workdps(40):
        lhs = eval_constant(dirichlet_l3(j))
        q = exact_L_rational(j)
        rhs = mp.mpf(q.numerator) / q.denominator * mp.sqrt(3) * mp.pi ** j
        assert abs(lhs - rhs) <= mp.mpf("1e-35") * abs(rhs)


# ------------------------------------------------------ dirichlet basis

def test_pi_even_power_becomes_zeta():
    v = to_dirichlet_basis(sv(1, (PI, 2), (zeta(5), 1)), 7)
    assert v == sv(6, (zeta(2), 1), (zeta(5), 1))
    v = to_dirichlet_basis(sv(1, (PI, 4), (zeta(3), 1)), 7)
    assert v == sv(90, (zeta(4), 1), (zeta(3), 1))


def test_s_third_becomes_l_product():
    v = to_dirichlet_basis(sv(1, (PI, 1), (clausen_s(4, F(1, 3)), 1)), 5)
    assert v == sv(F(9, 2), (dirichlet_l3(1), 1), (dirichlet_l3(4), 1))
    with mp.workdps(35):
        lhs = eval_symbolic(sv(1, (PI, 1), (clausen_s(4, F(1, 3)), 1)))
        rhs = eval_symbolic(v)
        assert abs(lhs - rhs) <= mp.mpf("1e-30") * abs(rhs)


def test_bare_zeta_is_kept():
    v = sv(4, (zeta(5), 1)) - sv(F(1, 3), (PI, 2), (zeta(3), 1))
    out = to_dirichlet_basis(v, 5)
    assert out.coefficient([(zeta(5), 1)]) == 4
    assert out.coefficient([(zeta(2), 1), (zeta(3), 1)]) == -2


def test_dirichlet_basis_rejections():
    with pytest.raises(ValueError):
        to_dirichlet_basis(sv(1, (clausen_c(3, F(1, 5)), 1), (PI, 2)), 5)
    with pytest.raises(ValueError):
        to_dirichlet_basis(sv(1, (clausen_s(3, F(1, 4)), 1), (PI, 2)), 5)
    with pytest.raises(ValueError):
        to_dirichlet_basis(sv(1, (PI, 5)), 5)          # odd pi, no sqrt3
    with pytest.raises(ValueError):                    # sqrt3, even pi
        to_dirichlet_basis(sv(1, (clausen_s(3, F(1, 3)), 1), (PI, 2)), 5)
    with pytest.raises(ValueError):
        to_dirichlet_basis(sv(1, (zeta(5), 1)), 4)     # even weight
    with pytest.raises(ValueError):
        to_dirichlet_basis(sv(1, (zeta(5), 1)), 7)     # weight mismatch


def _two_stage_dirichlet(v, k):
    """The earlier two-stage rewrite, kept as the reference: S_j(1/3) ->
    (sqrt3/2) L(j,chi3) into staged monomials keyed by their sqrt3 parity,
    sqrt3 pairs folded into 3s, then their pi powers walked."""
    if k % 2 == 0:
        raise ValueError("weight must be odd")
    outside = g2_field_error(v)
    if outside:
        raise ValueError(outside)
    staged = {}
    for mono, coeff in v.terms():
        factors, s3 = [], 0
        for sym, e in mono:
            if sym.kind == "S":
                coeff /= 2 ** e
                s3 += e
                factors.append((dirichlet_l3(sym.index), e))
            else:
                factors.append((sym, e))
        key = (constants._normalize_monomial(factors), s3 % 2)
        staged[key] = staged.get(key, 0) + coeff * 3 ** (s3 // 2)
    products = []
    for (mono, has_s3), coeff in staged.items():
        if not coeff:
            continue
        e_pi = constants._mono_exp(mono, PI)
        rest = [(s, e) for s, e in mono if s != PI]
        if has_s3:
            if e_pi % 2 == 0:
                raise ValueError("sqrt(3) with even pi power")
            coeff /= exact_L_rational(e_pi)
            rest.append((dirichlet_l3(e_pi), 1))
        elif e_pi:
            if e_pi % 2:
                raise ValueError("odd pi power without sqrt(3)")
            coeff *= constants._pi_even_to_zeta(e_pi)
            rest.append((zeta(e_pi), 1))
        products.append((coeff, rest))
    out = SymbolicValue.from_terms(products)
    for mono, _ in out.terms():
        if mono_weight(mono) != k:
            raise ValueError("weight mismatch")
    return out


_G2_FIELD = [zeta(2), zeta(3), clausen_s(2, F(1, 3)),
             clausen_s(3, F(1, 3)), clausen_s(4, F(1, 3))]


@settings(max_examples=300)
@given(st.sampled_from([5, 7, 9, 11, 13]), st.lists(st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=64),
    st.lists(st.sampled_from(_G2_FIELD), max_size=3),
    st.sampled_from([0, 0, 0, 1, -1])), min_size=1, max_size=4))
def test_one_pass_dirichlet_equals_two_stage(k, spec):
    # a repeated symbol is a power (the sqrt3s of repeated S_j(1/3) pair
    # into 3s); pi fills each monomial up to weight k, and a zeta(3) first
    # makes the pi power's parity that of the sqrt3 count, so most values
    # convert.  A nonzero shift moves the pi power and hits the
    # rejections: sqrt3 beside an even pi power, an odd pi power alone, a
    # wrong weight
    terms = []
    for coeff, syms, shift in spec:
        factors = [(sym, 1) for sym in syms]
        s3 = sum(sym.kind == "S" for sym in syms)
        w = sum(sym.weight for sym in syms)
        if (k - w - s3) % 2:
            factors.append((zeta(3), 1))
            w += 3
        terms.append((coeff, factors + [(PI, max(0, k - w + shift))]))
    v = SymbolicValue.from_terms(terms)
    try:
        want = _two_stage_dirichlet(v, k)
    except ValueError:
        with pytest.raises(ValueError):
            to_dirichlet_basis(v, k)
        return
    got = to_dirichlet_basis(v, k)
    assert got == want and got.terms() == want.terms()


def test_g2_field_error_names_the_first_constant_outside():
    assert g2_field_error(sv(1, (PI, 1), (clausen_s(4, F(1, 3)), 1))) is None
    assert g2_field_error(sv(1, (clausen_s(3, F(1, 4)), 1), (PI, 2))) \
        == "not in G2 constant field: S_3(1/4)"
    v = (sv(1, (clausen_c(5, F(1, 5)), 1))
         + sv(1, (clausen_s(3, F(1, 4)), 1), (PI, 2)))
    assert g2_field_error(v) == "not in G2 constant field: C_5(1/5)"


def test_mono_weight():
    v = sv(1, (PI, 3), (clausen_s(2, F(1, 3)), 1))
    ((mono, _),) = v.terms()
    assert mono_weight(mono) == 5


# --------------------------------------------------------------- printing

def test_to_text():
    assert to_text(SymbolicValue.zero()) == "0"
    assert to_text(SymbolicValue.from_terms([(F(-3, 2), [])])) == "-3/2"
    v = sv(4, (zeta(5), 1)) - sv(F(1, 3), (PI, 2), (zeta(3), 1))
    assert to_text(v) == "4ζ(5) - 1/3 π^2ζ(3)"
    w = sv(F(9, 2), (dirichlet_l3(1), 1), (dirichlet_l3(4), 1))
    assert to_text(w) == "9/2 L(1,χ3)L(4,χ3)"
    assert to_text(sv(-1, (PI, 1), (clausen_s(4, F(1, 3)), 1))) \
        == "-πS_4(1/3)"


def test_to_latex():
    assert to_latex(SymbolicValue.zero()) == "0"
    v = sv(4, (zeta(5), 1)) - sv(F(1, 3), (PI, 2), (zeta(3), 1))
    assert to_latex(v) == r"4\zeta(5)-\frac{\pi^2}{3}\zeta(3)"
    w = sv(F(-4, 81), (PI, 3), (clausen_s(2, F(1, 3)), 1))
    assert to_latex(w) == r"-\frac{4\pi^3}{81}S_2(\tfrac{1}{3})"
    assert to_latex(sv(1, (dirichlet_l3(1), 1), (dirichlet_l3(6), 1))) \
        == r"L(1,\chi_3)L(6,\chi_3)"


# ------------------------------------------------------------ round trips

@given(st.lists(st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=64),
    st.sampled_from(["pi", "zeta3", "S", "C", "L3", "one"]),
    st.integers(1, 3)), max_size=5))
def test_json_round_trip(spec):
    symbols = {
        "pi": (PI, 1), "zeta3": (zeta(3), 1),
        "S": (clausen_s(2, F(1, 3)), 1), "C": (clausen_c(3, F(2, 5)), 1),
        "L3": (dirichlet_l3(2), 1), "one": (PI, 0),
    }
    v = SymbolicValue.zero()
    for coeff, name, e in spec:
        sym, base = symbols[name]
        v = v + sv(coeff, (sym, base * e))
    assert from_json(to_json(v)) == v


def test_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        from_json('{"terms": [{"num": "1", "den": "1", '
                  '"factors": [{"kind": "zeta", "index": 1, "exp": 1}]}]}')
    with pytest.raises(ValueError):
        from_json('{"terms": [{"num": "1", "den": "1", '
                  '"factors": [{"kind": "sqrt3", "exp": 1}]}]}')
    for exp in ("-2", "0", "1.5", '"1"'):
        with pytest.raises(ValueError):
            from_json('{"terms": [{"num": "1", "den": "1", '
                      '"factors": [{"kind": "pi", "exp": %s}]}]}' % exp)


@pytest.mark.parametrize("term", [
    '{"num": "1", "den": "1", "factors": [{"kind": "zeta", "index": 3.5, "exp": 1}]}',
    '{"num": "1", "den": "1", "factors": [{"kind": "zeta", "index": "3", "exp": 1}]}',
    '{"num": "1", "den": "1", "factors": [{"kind": "L3", "index": true, "exp": 1}]}',
    '{"num": "1", "den": "0", "factors": [{"kind": "pi", "exp": 1}]}',
    '{"num": "1", "den": "1", "factors": [{"kind": "S", "index": 2, '
    '"angle": ["1", "0"], "exp": 1}]}',
    '{"num": 1.5, "den": 1, "factors": [{"kind": "pi", "exp": 1}]}',
    '{"num": 1, "den": true, "factors": [{"kind": "pi", "exp": 1}]}',
    '{"num": "1", "den": "1", "factors": [{"kind": "C", "index": 3, '
    '"angle": [1.5, 4], "exp": 1}]}',
], ids=["float-index", "string-index", "bool-index", "zero-den", "zero-angle-den",
        "float-num", "bool-den", "float-angle"])
def test_json_rejects_malformed_factors(term):
    with pytest.raises(ValueError):
        from_json('{"terms": [%s]}' % term)
