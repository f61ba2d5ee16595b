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

Both blocks sum their table along its anti-diagonals and hand one weight
per (c, s) to one writer.  The zeta block is c = b, whose whole angle a
gives C_j(a) = zeta(j), so reduce_angle alone picks zeta, C or S.  Every
term is written at i^(e+odd), e = k-(k1+s), odd = (k1-1+s) mod 2, and
e+odd = k-1 (mod 2) is even at odd weight k.  _real_terms checks that power
where each term is written and raises on a nonzero term with odd power.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .arith import bernoulli_number, bernoulli_polys
from .constants import PI, SymbolicValue, mono_weight, reduce_angle


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


def _real_terms(k: int, e: int, x: Fraction, cst: SymbolicValue) -> list:
    """i^k x pi^e cst, for a real constant cst, as (coeff, factors) pairs;
    raises on a nonzero term with odd k, which would leave the block complex."""
    if k % 2 and x and not cst.is_zero:
        raise RuntimeError(f"odd power i^{k} on a nonzero term: {x} pi^{e} {cst}")
    sign = -1 if k % 4 >= 2 else 1
    return [(sign * x * coeff, [*mono, (PI, e)]) for mono, coeff in cst.terms()]


def _diagonal_sums(table: dict, b: int, k2: int, k3: int, n2_from: int) -> dict:
    """{s: sum of T(n2,n3) C(s,j) (-b)^j over n2 >= n2_from}, s = k2+k3-n2-n3
    and j = k2-n2: T summed along the anti-diagonals, where s fixes both
    pi^(n2+n3) and the constant's index."""
    sums: dict[int, Fraction] = {}
    for (n2, n3), t in table.items():
        if t and n2 >= n2_from:
            j = k2 - n2
            s = j + k3 - n3
            sums[s] = sums.get(s, 0) + t * (comb(s, j) * (-b) ** j)
    return sums


def _write(req: EvalRequest, weights: dict) -> SymbolicValue:
    """The sum over {(c, s): w} of i^(e+odd) w (2 pi)^e/a^s K_{k1+s}(ac/b),
    e = k2+k3-s, odd = (k1-1+s) mod 2, K = S if odd else C; at c = b the
    angle is a whole number and C_{k1+s}(a) = zeta(k1+s)."""
    a, b, k1, k2, k3 = req
    terms = []
    for (c, s), w in weights.items():
        if not w:
            continue
        e = k2 + k3 - s
        odd = (k1 - 1 + s) % 2
        terms += _real_terms(e + odd, e, w * Fraction(2 ** e, a ** s),
                             reduce_angle("S" if odd else "C", k1 + s,
                                          Fraction(a * c, b)))
    return SymbolicValue.from_terms(terms)


def term1_coeff(req: EvalRequest) -> SymbolicValue:
    """The coefficient block pairing A_b(n2,n3) with the depth-one zeta
    series: (2 pi i)^e a^-s zeta(k1+s) for odd k1+s, the writer's c = b."""
    _, b, k1, k2, k3 = req
    sums = _diagonal_sums(alpha_coeffs(b, k2, k3), b, k2, k3, 0)
    return _write(req, {(b, s): w for s, w in sums.items()
                        if s >= 1 and (k1 + s) % 2})


def term2_coeff(req: EvalRequest) -> SymbolicValue:
    """The shift-correction block: Clausen values at angles
    a*c/b weighted by Bernoulli polynomial values B_q(c/b); zero when b = 1."""
    _, b, k1, k2, k3 = req
    # (-1)^q B_q(c/b) / q! for every q below, one list per c built from
    # one list of powers of c/b; c = b gives the B_q(1) of the zeta block,
    # which has no Clausen block to join when b = 1
    bern = {c: [v / ((-1) ** q * factorial(q)) for q, v in
                enumerate(bernoulli_polys(k2 + k3 - 1, Fraction(c, b)))]
            for c in range(1, b + 1) if b > 1}
    # with diagonal sum w at s0 and s0+1 = s+q, the term is
    # (-1)^q w (2 pi i)^e/(a^s q!) times
    #   i S_{k1+s}(ac/b) B_q(c/b)                   for even k1+s,
    #   C_{k1+s}(ac/b) B_q(c/b) - zeta(k1+s) B_q(1)  for odd k1+s,
    # and zeta(k1+s) is the Clausen block at c = b: sum the weights per
    # (c, s) and write them once
    weights: dict[tuple[int, int], Fraction] = {}
    for c in range(1, b):
        sums = _diagonal_sums(alpha_tilde_coeffs(b, c, k2, k3), b, k2, k3, 1)
        for s0, w in sums.items():
            for s in range(1, s0 + 2):
                q = s0 + 1 - s
                if (k1 + s) % 2:
                    weights[(b, s)] = weights.get((b, s), 0) - w * bern[b][q]
                weights[(c, s)] = weights.get((c, s), 0) + w * bern[c][q]
    return _write(req, weights)


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
