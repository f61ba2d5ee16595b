"""Exact rational arithmetic helpers: Bernoulli numbers and Bernoulli
polynomial values.

Two Bernoulli conventions exist in the literature, so every call names
one explicitly; the package reads at-zero numbers only:

  at-zero :  B_k = B_k(0),  B_1 = -1/2   (generating function t/(e^t-1))
  at-one  :  B_k = B_k(1),  B_1 = +1/2   (generating function t*e^t/(e^t-1))

They differ only at k = 1: B_k(1) = (-1)^k * B_k(0).

All values are `fractions.Fraction`; nothing in this module touches
floating point.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

Rational = Fraction

_CONVENTIONS = ("at-zero", "at-one")

# at-zero Bernoulli numbers by index.  Entry m is written only after
# every entry below it, and always with the same value, so holding k
# means holding 0..k; a repeated write is harmless and no lock is needed
_bern_cache: dict[int, Fraction] = {0: Fraction(1)}


def _extend_bernoulli(k: int) -> None:
    # recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0, solved for B_k
    for m in range(k + 1):
        if m not in _bern_cache:
            acc = sum(Fraction(comb(m + 1, j)) * _bern_cache[j] for j in range(m))
            _bern_cache[m] = -acc / (m + 1)


def bernoulli_number(k: int, convention: str) -> Fraction:
    """B_k in the named convention ("at-zero" or "at-one")."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown Bernoulli convention {convention!r}")
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if k not in _bern_cache:
        _extend_bernoulli(k)
    value = _bern_cache[k]
    if convention == "at-one" and k % 2 == 1:
        value = -value
    return value


def bernoulli_poly(k: int, x: Rational) -> Fraction:
    """Bernoulli polynomial B_k(x) = sum_j C(k,j) B_j(0) x^(k-j), summed
    over the integer powers of x = n/d: d^k B_k(x) = sum_j C(k,j) B_j(0)
    n^(k-j) d^j, so each term is one Bernoulli number times an integer."""
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    if k not in _bern_cache:
        _extend_bernoulli(k)
    n, d = x.numerator, x.denominator
    return sum(_bern_cache[j] * (comb(k, j) * n ** (k - j) * d ** j)
               for j in range(k + 1) if _bern_cache[j]) / d ** k
