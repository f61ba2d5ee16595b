"""Closed forms for the double series

    zeta_{a,b}(k1,k2,k3) = sum_{m,n>0} m^-k1 n^-k2 (a m + b n)^-k3

at odd weight k = k1+k2+k3, as exact Q-linear combinations of zeta
values and Clausen constants (pi-power times one of zeta(j), C_j(q),
S_j(q) with q of denominator dividing lcm(a,b)).

The value equals -(1/2) [G_{a,b}(k1,k2,k3) + G_{b,a}(k2,k1,k3)] where
G_{a,b} is the coefficient of t1^k1 t2^k2 t3^k3 in a generating function
built from Bernoulli series and Hurwitz-type sums.  That coefficient is
a finite sum assembled here exactly: term1 pairs a depth-one zeta series
with the coefficients A_b(r,s) of

    alpha_b(t1,t2) = beta0(t1) beta0(-t2) (e^{b t1 - t2}-1)/(b t1 - t2),
    beta0(t) = t/(e^t - 1) = sum B_p(0) t^p / p!,

and term2 collects the shift corrections

    atilde_{b,c}(t1,t2) = -t1 e^{-c t1} beta0(-t2) (e^{b t1 - t2}-1)/(b t1 - t2)

for c = 1..b-1, whose constants are Clausen values at angles a*c/b paired
with Bernoulli polynomial values B_q(c/b).  Both tables are read off as
finite Cauchy double sums over Bernoulli numbers, one per coefficient.
Each coefficient, per (b, c, r, s), is computed once per process and
shared by every truncation that holds it; a caller gets a fresh dict.

Each block is real by construction.  With k = k1+k2+k3 odd, term1
writes i^e zeta(k1+s) with e = k-(k1+s), nonzero only for odd k1+s, so e
is even; term2 writes i^(e+odd) with odd = (k1-1+s) mod 2, and e+odd is
even for its C, zeta and S terms alike.  _real_terms checks that power
where each term is written and raises on a nonzero term with odd power.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd

from .arith import bernoulli_number, bernoulli_polys
from .constants import PI, SymbolicValue, mono_weight, reduce_angle, zeta


class EvalRequest(namedtuple("EvalRequest", "a b k1 k2 k3")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, k1: int, k2: int, k3: int):
        if min(a, b, k1, k2, k3) < 1:
            raise ValueError("all of a, b, k1, k2, k3 must be >= 1")
        if (k1 + k2 + k3) % 2 == 0:
            raise ValueError(
                "weight must be odd: the parity theorem covers odd weight only")
        return super().__new__(cls, a, b, k1, k2, k3)

    @property
    def weight(self) -> int:
        return self.k1 + self.k2 + self.k3

    @property
    def factors(self) -> list[tuple[int, int, int]]:
        """(cm, cn, exponent) of m, n and a m + b n for the lattice oracle."""
        return [(1, 0, self.k1), (0, 1, self.k2), (self.a, self.b, self.k3)]

    @property
    def swapped(self) -> "EvalRequest":
        return EvalRequest(self.b, self.a, self.k2, self.k1, self.k3)


@cache
def _front(c: int, p: int) -> Fraction:
    """The t1^p coefficient of f(t1): beta0(t1) for c = 0, else -t1 e^{-c t1}."""
    if c == 0:
        return bernoulli_number(p, "at-zero") / factorial(p)
    return -Fraction((-c) ** (p - 1), factorial(p - 1)) if p else Fraction(0)


@cache
def _inner(b: int, q1: int, s: int) -> Fraction:
    """The sum over p2 <= s of B_p2(0)/p2! b^q1 / (q1! (s-p2)! (q1+s-p2+1)):
    the inner sum of _coeff, which depends on r and p1 only through q1 = r-p1."""
    return Fraction(b ** q1, factorial(q1)) * sum(
        _front(0, p2) / (factorial(s - p2) * (q1 + s - p2 + 1))
        for p2 in range(s + 1) if _front(0, p2))


@cache
def _coeff(b: int, c: int, r: int, s: int) -> Fraction:
    """The coefficient of t1^r t2^s in f(t1) beta0(-t2) (e^{bt1-t2}-1)/(bt1-t2),
    f as in _front: the Cauchy double sum over p1 <= r, p2 <= s of
    f_p1 B_p2(0)/p2! (-1)^s b^(r-p1) / ((r-p1)! (s-p2)! (r-p1+s-p2+1))."""
    return (-1) ** s * sum((_front(c, p1) * _inner(b, r - p1, s)
                            for p1 in range(r + 1) if _front(c, p1)), Fraction(0))


def _coeff_table(b: int, c: int, rows: int, cols: int) -> dict:
    """{(r, s): _coeff(b, c, r, s)} for r <= rows, s <= cols, a fresh dict."""
    return {(r, s): _coeff(b, c, r, s)
            for r in range(rows + 1) for s in range(cols + 1)}


def alpha_coeffs(b: int, rows: int, cols: int) -> dict:
    """{(r, s): A_b(r,s)} for r <= rows, s <= cols."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return _coeff_table(b, 0, rows, cols)


def alpha_tilde_coeffs(b: int, c: int, rows: int, cols: int) -> dict:
    """Coefficients of atilde_{b,c}(t1,t2) at t1^r t2^s, r <= rows, s <= cols."""
    if not 1 <= c <= b - 1:
        raise ValueError("need 1 <= c <= b-1")
    return _coeff_table(b, c, rows, cols)


def zeta_integral_coeff(a: int, b: int, r: int, s: int) -> SymbolicValue:
    """gcd(a,b)^(r+s)/(a^s b^r) * zeta(r+s) for odd r+s, else zero."""
    if min(a, b, r, s) < 1:
        raise ValueError("arguments must be >= 1")
    if (r + s) % 2 == 0:
        return SymbolicValue.zero()
    g = gcd(a, b)
    coeff = Fraction(g ** (r + s), a ** s * b ** r)
    return SymbolicValue.from_terms([(coeff, [(zeta(r + s), 1)])])


def _real_terms(k: int, e: int, x: Fraction, cst: SymbolicValue) -> list:
    """i^k x pi^e cst, for a real constant cst, as (coeff, factors) pairs;
    raises on a nonzero term with odd k, which would leave the block complex."""
    if k % 2 and x and not cst.is_zero:
        raise RuntimeError(f"odd power i^{k} on a nonzero term: {x} pi^{e} {cst}")
    sign = -1 if k % 4 >= 2 else 1
    return [(sign * x * coeff, [*mono, (PI, e)]) for mono, coeff in cst.terms()]


def term1_coeff(req: EvalRequest) -> SymbolicValue:
    """The coefficient block pairing A_b(n2,n3) with the
    depth-one zeta series; monomials are (2 pi i)^(n2+n3) rational zeta(k1+s)."""
    a, b, k1, k2, k3 = req.a, req.b, req.k1, req.k2, req.k3
    series = alpha_coeffs(b, k2, k3)
    # s = k2+k3-n2-n3 fixes both pi^(n2+n3) and zeta(k1+s): sum per s first
    weights: dict[int, Fraction] = {}
    for n2 in range(k2 + 1):
        for n3 in range(k3 + 1):
            ab = series[(n2, n3)]
            s = k2 + k3 - n2 - n3
            if ab and s >= 1:
                j = k2 - n2
                weights[s] = weights.get(s, 0) + ab * (comb(s, j) * (-b) ** j)
    terms = []
    for s, w in weights.items():
        e = k2 + k3 - s
        terms += _real_terms(e, e, w * 2 ** e, zeta_integral_coeff(a, 1, k1, s))
    return SymbolicValue.from_terms(terms)


def term2_coeff(req: EvalRequest) -> SymbolicValue:
    """The shift-correction block: Clausen values at angles
    a*c/b weighted by Bernoulli polynomial values B_q(c/b); zero when b = 1."""
    a, b, k1, k2, k3 = req.a, req.b, req.k1, req.k2, req.k3
    p = k1 - 1
    # the term at (c, n2, n3) depends on n2 + n3 only through
    # big_q = k2+k3-n2-n3+1: sum its rational weight per (c, big_q) first
    lead: dict[tuple[int, int], Fraction] = {}
    for c in range(1, b):
        series = alpha_tilde_coeffs(b, c, k2, k3)
        for n2 in range(1, k2 + 1):
            for n3 in range(k3 + 1):
                at = series[(n2, n3)]
                if at == 0:
                    continue
                big_q = k2 + k3 - n2 - n3 + 1
                j = k2 - n2
                lead[(c, big_q)] = lead.get((c, big_q), 0) + at * (
                    comb(big_q - 1, j) * b ** j * (-1) ** (big_q - 1 - j))

    # B_q(c/b) / q! for every q below, one list per c built from one list
    # of powers of c/b; c = b gives the B_q(1) of the zeta block
    top = max((big_q for _, big_q in lead), default=1) - 1
    bern = {c: [v / factorial(q)
                for q, v in enumerate(bernoulli_polys(top, Fraction(c, b)))]
            for c in {c for c, _ in lead} | {b}}

    # with big_q = s + q and e = k2+k3-s, the term is (-1)^s 2^e pi^e/(a^s q!) times
    #   -i S_{p+s+1}(ac/b) B_q(c/b)                   for odd p+s,
    #   zeta(p+s+1) B_q(1) - C_{p+s+1}(ac/b) B_q(c/b)  for even p+s,
    # and zeta(p+s+1) = C_{p+s+1}(ab/b) is the Clausen block at c = b,
    # added for even p+s only: sum the weights per (c, s), then scale once
    clausen_w: dict[tuple[int, int], Fraction] = {}
    for (c, big_q), w in lead.items():
        for s in range(1, big_q + 1):
            q = big_q - s
            if (p + s) % 2 == 0:
                clausen_w[(b, s)] = clausen_w.get((b, s), 0) + w * bern[b][q]
            clausen_w[(c, s)] = clausen_w.get((c, s), 0) - w * bern[c][q]
    terms = []
    for (c, s), w in clausen_w.items():
        e = k2 + k3 - s
        odd = (p + s) % 2
        x = w * Fraction((-1) ** s * 2 ** e, a ** s)
        terms += _real_terms(e + odd, e, x,
                             reduce_angle("S" if odd else "C", p + s + 1,
                                          Fraction(a * c, b)))
    return SymbolicValue.from_terms(terms)


def g_coefficient(req: EvalRequest) -> SymbolicValue:
    """The full coefficient G_{a,b}(k1,k2,k3), real at odd weight.

    The generating function has a third block depending on (t1,t2) and
    (t1,t3) only; its coefficient at t2^k2 t3^k3 with k2,k3 >= 1 is zero,
    so term1 + term2 is the whole coefficient.
    """
    return term1_coeff(req) + term2_coeff(req)


def closed_form(req: EvalRequest) -> SymbolicValue:
    """zeta_{a,b}(k1,k2,k3) = -(1/2) [G_{a,b}(k1,k2,k3)+G_{b,a}(k2,k1,k3)]."""
    value = (g_coefficient(req) + g_coefficient(req.swapped)) * Fraction(-1, 2)
    if any(mono_weight(mono) != req.weight for mono, _ in value.terms()):
        raise RuntimeError(f"weight homogeneity broken for {req}")
    return value
