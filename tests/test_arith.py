"""Bernoulli numbers and polynomials: exact values and the
defining identities, in both conventions."""
import sys
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from tornheim import arith
from tornheim.arith import bernoulli_number, bernoulli_poly

F = Fraction

KNOWN_AT_ZERO = {
    0: F(1), 1: F(-1, 2), 2: F(1, 6), 3: F(0), 4: F(-1, 30), 5: F(0),
    6: F(1, 42), 8: F(-1, 30), 10: F(5, 66), 12: F(-691, 2730),
    14: F(7, 6), 20: F(-174611, 330),
}


@pytest.mark.parametrize("k,value", sorted(KNOWN_AT_ZERO.items()))
def test_bernoulli_at_zero_table(k, value):
    assert bernoulli_number(k, "at-zero") == value


def test_conventions_differ_only_at_one():
    assert bernoulli_number(1, "at-zero") == F(-1, 2)
    assert bernoulli_number(1, "at-one") == F(1, 2)
    for k in range(0, 30):
        z, o = bernoulli_number(k, "at-zero"), bernoulli_number(k, "at-one")
        assert o == (-1) ** k * z
        if k != 1:
            assert z == o


def test_convention_is_mandatory():
    with pytest.raises(TypeError):
        bernoulli_number(4)
    with pytest.raises(ValueError):
        bernoulli_number(4, "at-half")
    with pytest.raises(ValueError):
        bernoulli_number(-1, "at-zero")


@pytest.mark.parametrize("k", range(1, 40))
def test_defining_recurrence(k):
    # sum_{j<=k} C(k+1,j) B_j(0) = 0 for k >= 1
    acc = sum(F(comb(k + 1, j)) * bernoulli_number(j, "at-zero")
              for j in range(k + 1))
    assert acc == 0


def test_poly_endpoints_match_numbers():
    for k in range(0, 25):
        assert bernoulli_poly(k, 0) == bernoulli_number(k, "at-zero")
        assert bernoulli_poly(k, 1) == bernoulli_number(k, "at-one")


@given(st.integers(0, 18),
       st.fractions(min_value=-3, max_value=3, max_denominator=12))
def test_poly_difference_equation(k, x):
    # B_k(x+1) - B_k(x) = k x^(k-1)
    lhs = bernoulli_poly(k, x + 1) - bernoulli_poly(k, x)
    rhs = k * F(x) ** (k - 1) if k else F(0)
    assert lhs == rhs


@given(st.integers(0, 18),
       st.fractions(min_value=-3, max_value=3, max_denominator=12))
def test_poly_reflection(k, x):
    # B_k(1-x) = (-1)^k B_k(x)
    assert bernoulli_poly(k, 1 - F(x)) == (-1) ** k * bernoulli_poly(k, x)


def test_cache_grows_safely_under_threads(monkeypatch):
    # eight threads grow an empty table at once, switching often
    def work():
        results.append(bernoulli_number(120, "at-zero"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(arith, "_bern_cache", {0: F(1)})
            results = []
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(results) == 8 and len(set(results)) == 1
            # spot value keeps the recurrence honest at depth
            acc = sum(F(comb(121, j)) * bernoulli_number(j, "at-zero")
                      for j in range(121))
            assert acc == 0
    finally:
        sys.setswitchinterval(interval)
