"""Closed forms for the double series

    zeta_{a,b}(k1,k2,k3) = sum_{m,n>0} m^-k1 n^-k2 (a m + b n)^-k3

at odd weight k = k1+k2+k3, as exact Q-linear combinations of zeta
values and Clausen constants (pi-power times one of zeta(j), C_j(q),
S_j(q) with q of denominator dividing lcm(a,b)).

The value equals -(1/2) [G_{a,b}(k1,k2,k3) + G_{b,a}(k2,k1,k3)] where
G_{a,b} is the coefficient of t1^k1 t2^k2 t3^k3 in a generating function
built from Bernoulli series and Hurwitz-type sums.  The paper sums, for
c = 0..b-1, the coefficient table of

    f_c(t1) beta0(-t2) phi(b t1 - t2),  phi(x) = (e^x - 1)/x,
    beta0(t) = t/(e^t - 1) = sum B_p(0) t^p / p!,

along its anti-diagonals with weights C(s,j) (-b)^j.  Block 0 (term1:
f_0 = beta0, the table A_b) meets a depth-one zeta series; blocks c >= 1
(term2: f_c = -t1 e^{-c t1}, the tables atilde_{b,c}) meet Clausen
values at angles a*c/b, spread over (-1)^q B_q(c/b)/q!.  Two identities
make each block one polynomial in x = c/b per s:

  * the contraction is [t1^k2 t2^k3] of the product times (t2 - b t1)^s,
    and phi depends on b t1 - t2 alone: one sum over N of
    G_c(N) = [t1^k2 t2^k3] f_c(t1) beta0(t2) (b t1 + t2)^N;
  * the spread telescopes by B_n(x+1) - B_n(x) = n x^(n-1).

So block c writes (-1)^(k3+s+1) sum_{N >= s-1} G_c(N) x^m / m!, with
m = N-s+1, at the angle a c/b, and minus its value at x = 1 at the whole
angle a, where C_j(a) = zeta(j) and S_j(a) = 0.  The engine reads no
table; alpha_coeffs and alpha_tilde_coeffs give the paper's.

Each (c, s) weight goes to one writer, and reduce_angle alone picks
zeta, C or S.  Every term is written at i^(e+odd), e = k-(k1+s),
odd = (k1-1+s) mod 2, and e+odd = k-1 (mod 2) is even at odd weight k.
_real_terms checks that power where each term is written and raises on
a nonzero term with odd power.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm

from .arith import bernoulli_number
from .constants import PI, SymbolicValue, mono_weight, reduce_angle


class EvalRequest(namedtuple("EvalRequest", "a b k1 k2 k3")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, k1: int, k2: int, k3: int):
        if any(type(x) is not int or x < 1 for x in (a, b, k1, k2, k3)):
            raise ValueError("all of a, b, k1, k2, k3 must be integers >= 1")
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
    """The t1^p coefficient of f_c(t1): beta0(t1) for c = 0, else -t1 e^{-c t1}."""
    if c == 0:
        return bernoulli_number(p, "at-zero") / factorial(p)
    return -Fraction((-c) ** (p - 1), factorial(p - 1)) if p else Fraction(0)


def _coeff(b: int, c: int, r: int, s: int) -> Fraction:
    """The t1^r t2^s coefficient of f_c(t1) beta0(-t2) phi(b t1 - t2), as
    a Cauchy double sum over the coefficients of f_c(t1) and beta0(-t2)."""
    return (-1) ** s * sum((_front(c, p1) * _front(0, p2) * Fraction(
        b ** (r - p1), factorial(r - p1) * factorial(s - p2) * (r - p1 + s - p2 + 1))
        for p1 in range(r + 1) for p2 in range(s + 1)), Fraction(0))


def alpha_coeffs(b: int, rows: int, cols: int) -> dict:
    """{(r, s): A_b(r,s)} for r <= rows, s <= cols."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return {(r, s): _coeff(b, 0, r, s)
            for r in range(rows + 1) for s in range(cols + 1)}


def alpha_tilde_coeffs(b: int, c: int, rows: int, cols: int) -> dict:
    """Coefficients of atilde_{b,c}(t1,t2) at t1^r t2^s, r <= rows, s <= cols."""
    if not 1 <= c <= b - 1:
        raise ValueError("need 1 <= c <= b-1")
    return {(r, s): _coeff(b, c, r, s)
            for r in range(rows + 1) for s in range(cols + 1)}


@cache
def _block(b: int, c: int, k2: int, k3: int) -> tuple[int, ...]:
    """(D, D G_c(0), ..., D G_c(k2+k3)), D the least common denominator:
    G_c(N) = sum over p1+p2 = k2+k3-N of f_p1 B_p2(0)/p2! C(N,k2-p1) b^(k2-p1)."""
    g = [Fraction(0)] * (k2 + k3 + 1)
    for p1 in range(k2 + 1):
        for p2 in range(k3 + 1):
            n = k2 + k3 - p1 - p2
            g[n] += _front(c, p1) * _front(0, p2) * comb(n, k2 - p1) * b ** (k2 - p1)
    den = lcm(*(x.denominator for x in g))
    return den, *(x.numerator * (den // x.denominator) for x in g)


def _spread(block: tuple, s: int, n: int, d: int) -> Fraction:
    """The sum over N >= s-1 of G_c(N) x^m / m!, m = N-s+1, at x = n/d,
    summed in integers over the denominator D d^top top!, top = max m."""
    den, *g = block
    top = len(g) - s
    acc, scale = 0, 1                   # scale = d^(top-m) top!/m!
    for m in range(top, -1, -1):
        acc += g[m + s - 1] * scale * n ** m
        scale *= d * m
    return Fraction(acc, den * d ** top * factorial(top))


def _real_terms(k: int, e: int, x: Fraction, cst: SymbolicValue) -> list:
    """i^k x pi^e cst, for a real constant cst, as (coeff, factors) pairs;
    raises on a nonzero term with odd k, which would leave the block complex."""
    if k % 2 and x and not cst.is_zero:
        raise RuntimeError(f"odd power i^{k} on a nonzero term: {x} pi^{e} {cst}")
    sign = -1 if k % 4 >= 2 else 1
    return [(sign * x * coeff, [*mono, (PI, e)]) for mono, coeff in cst.terms()]


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


def _blocks(req: EvalRequest, cs: range) -> SymbolicValue:
    """The blocks c in cs; block 0's angle 0 is whole, so it writes to (b, s)."""
    _, b, k1, k2, k3 = req
    weights: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for c in cs:
        block = _block(b, c, k2, k3)
        for s in range(1, k2 + k3 + 1):
            sign = (-1) ** (k3 + s + 1)
            if (k1 + s) % 2:
                weights[(b, s)] -= sign * _spread(block, s, 1, 1)
            if c or (k1 + s) % 2:
                weights[(c or b, s)] += sign * _spread(block, s, c, b)
    return _write(req, weights)


def term1_coeff(req: EvalRequest) -> SymbolicValue:
    """Block 0: (2 pi i)^e a^-s zeta(k1+s) for odd k1+s."""
    return _blocks(req, range(1))


def term2_coeff(req: EvalRequest) -> SymbolicValue:
    """The shift blocks c = 1..b-1, with angles a*c/b; zero when b = 1."""
    return _blocks(req, range(1, req.b))


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
