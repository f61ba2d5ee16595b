"""Closed forms for the double series

    zeta_{a,b}(k1,k2,k3) = sum_{m,n>0} m^-k1 n^-k2 (a m + b n)^-k3

at odd weight k = k1+k2+k3, as exact Q-linear combinations of zeta
values and Clausen constants (pi-power times one of zeta(j), C_j(q),
S_j(q) with q of denominator dividing lcm(a,b)).

The value equals -(1/2) Re[G_{a,b}(k1,k2,k3) + G_{b,a}(k2,k1,k3)] where
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
Every constant multiplied here is real, so a power i^k of the imaginary
unit only picks the part a term joins and its sign: each block is kept
as a pair [Re, Im] of real values.  At odd weight the imaginary parts of
the two G's cancel exactly; closed_form checks that before it returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .arith import bernoulli_number, bernoulli_poly
from .constants import PI, SymbolicValue, mono_weight, reduce_angle, zeta


@dataclass(frozen=True)
class EvalRequest:
    a: int
    b: int
    k1: int
    k2: int
    k3: int

    def __post_init__(self):
        if min(self.a, self.b, self.k1, self.k2, self.k3) < 1:
            raise ValueError("all of a, b, k1, k2, k3 must be >= 1")
        if self.weight % 2 == 0:
            raise ValueError("parity theorem applies to odd weight only")

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


def _coeff_table(front: list, b: int, rows: int, cols: int) -> dict:
    """Coefficients of t1^r t2^s, r <= rows, s <= cols, in
    f(t1) beta0(-t2) (e^{bt1-t2}-1)/(bt1-t2), f(t1) = sum front[p] t1^p:
    the Cauchy double sum over p1 <= r, p2 <= s of
    f_p1 B_p2(0)/p2! (-1)^s b^(r-p1) / ((r-p1)! (s-p2)! (r-p1+s-p2+1))."""
    bern = [bernoulli_number(p, "at-zero") / factorial(p)
            for p in range(cols + 1)]
    # the sum over p2 depends on q1 = r - p1 and s only: one per (q1, s)
    inner = {(q1, s): Fraction(b ** q1, factorial(q1)) * sum(
                 bern[p2] / (factorial(s - p2) * (q1 + s - p2 + 1))
                 for p2 in range(s + 1) if bern[p2])
             for q1 in range(rows + 1) for s in range(cols + 1)}
    return {(r, s): (-1) ** s * sum(
                (front[p1] * inner[(r - p1, s)] for p1 in range(r + 1)
                 if front[p1]), Fraction(0))
            for r in range(rows + 1) for s in range(cols + 1)}


def alpha_coeffs(b: int, rows: int, cols: int) -> dict:
    """{(r, s): A_b(r,s)} for r <= rows, s <= cols."""
    if b < 1:
        raise ValueError("b must be >= 1")
    front = [bernoulli_number(p, "at-zero") / factorial(p)
             for p in range(rows + 1)]
    return _coeff_table(front, b, rows, cols)


def alpha_tilde_coeffs(b: int, c: int, rows: int, cols: int) -> dict:
    """Coefficients of atilde_{b,c}(t1,t2) at t1^r t2^s, r <= rows, s <= cols."""
    if not 1 <= c <= b - 1:
        raise ValueError("need 1 <= c <= b-1")
    front = [Fraction(0)] + [-Fraction((-c) ** (p - 1), factorial(p - 1))
                             for p in range(1, rows + 1)]
    return _coeff_table(front, b, rows, cols)


def zeta_integral_coeff(a: int, b: int, r: int, s: int) -> SymbolicValue:
    """gcd(a,b)^(r+s)/(a^s b^r) * zeta(r+s) for odd r+s, else zero."""
    if min(a, b, r, s) < 1:
        raise ValueError("arguments must be >= 1")
    if (r + s) % 2 == 0:
        return SymbolicValue.zero()
    g = gcd(a, b)
    coeff = Fraction(g ** (r + s), a ** s * b ** r)
    return SymbolicValue.from_factors(coeff, [(zeta(r + s), 1)])


def _add_i_power(parts: list, k: int, v: SymbolicValue) -> None:
    """parts[0] + i parts[1] += i^k v, for a real value v."""
    parts[k % 2] += -v if k % 4 >= 2 else v


def term1_coeff(req: EvalRequest) -> list:
    """[Re, Im] of the coefficient block pairing A_b(n2,n3) with the
    depth-one zeta series; monomials are (2 pi i)^(n2+n3) rational zeta(k1+s)."""
    a, b, k1, k2, k3 = req.a, req.b, req.k1, req.k2, req.k3
    series = alpha_coeffs(b, k2, k3)
    out = [SymbolicValue.zero(), SymbolicValue.zero()]
    for n2 in range(k2 + 1):
        for n3 in range(k3 + 1):
            ab = series[(n2, n3)]
            if ab == 0:
                continue
            s = k2 + k3 - n2 - n3
            j = k2 - n2
            if s < 1:
                continue
            zv = zeta_integral_coeff(a, 1, k1, s)
            if zv.is_zero:
                continue
            e = n2 + n3
            coeff = ab * comb(s, j) * Fraction(-b) ** j * 2 ** e
            _add_i_power(out, e,
                         SymbolicValue.from_factors(coeff, [(PI, e)]) * zv)
    return out


def term2_coeff(req: EvalRequest) -> list:
    """[Re, Im] of the shift-correction block: Clausen values at angles
    a*c/b weighted by Bernoulli polynomial values B_q(c/b); zero when b = 1."""
    a, b, k1, k2, k3 = req.a, req.b, req.k1, req.k2, req.k3
    p = k1 - 1
    out = [SymbolicValue.zero(), SymbolicValue.zero()]
    for c in range(1, b):
        series = alpha_tilde_coeffs(b, c, k2, k3)
        angle = Fraction(a * c, b)
        bq_at = Fraction(c, b)
        for n2 in range(1, k2 + 1):
            for n3 in range(k3 + 1):
                at = series[(n2, n3)]
                if at == 0:
                    continue
                big_q = k2 + k3 - n2 - n3 + 1
                j = k2 - n2
                fixed = at * comb(big_q - 1, j) * Fraction(b) ** j \
                    * (-1) ** (big_q - 1 - j)
                for s in range(1, big_q + 1):
                    q = big_q - s
                    e = n2 + n3 + q - 1
                    base = fixed * Fraction((-1) ** s * 2 ** e,
                                            factorial(q) * a ** s)
                    if (p + s) % 2:
                        # -i * S_{p+s+1}(ac/b) * B_q(c/b)
                        cst = reduce_angle("S", p + s + 1, angle) \
                            * bernoulli_poly(q, bq_at)
                        _add_i_power(out, e + 1, SymbolicValue.from_factors(
                            -base, [(PI, e)]) * cst)
                    else:
                        # zeta(p+s+1) B_q(1) - C_{p+s+1}(ac/b) B_q(c/b)
                        cst = SymbolicValue.from_factors(
                            bernoulli_number(q, "at-one"),
                            [(zeta(p + s + 1), 1)]) \
                            - reduce_angle("C", p + s + 1, angle) \
                            * bernoulli_poly(q, bq_at)
                        _add_i_power(out, e, SymbolicValue.from_factors(
                            base, [(PI, e)]) * cst)
    return out


def g_coefficient(req: EvalRequest) -> tuple[SymbolicValue, SymbolicValue]:
    """(Re, Im) of the full coefficient G_{a,b}(k1,k2,k3).

    The generating function has a third block depending on (t1,t2) and
    (t1,t3) only; its coefficient at t2^k2 t3^k3 with k2,k3 >= 1 is zero,
    so term1 + term2 is the whole coefficient.
    """
    (re1, im1), (re2, im2) = term1_coeff(req), term2_coeff(req)
    return re1 + re2, im1 + im2


def closed_form(req: EvalRequest) -> SymbolicValue:
    """zeta_{a,b}(k1,k2,k3) = -(1/2) Re[G_{a,b}(k1,k2,k3)+G_{b,a}(k2,k1,k3)];
    raises unless the imaginary parts cancel exactly."""
    (re1, im1), (re2, im2) = g_coefficient(req), g_coefficient(req.swapped)
    if not (im1 + im2).is_zero:
        raise RuntimeError(f"imaginary part does not cancel for {req}")
    value = (re1 + re2) * Fraction(-1, 2)
    if any(mono_weight(mono) != req.weight for mono, _ in value.terms()):
        raise RuntimeError(f"weight homogeneity broken for {req}")
    return value
