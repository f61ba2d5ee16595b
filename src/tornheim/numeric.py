"""High-precision numeric evaluation: the independent oracle against
which every symbolic identity is checked.

A lattice sum sum_{m,n>=1} prod_f (cm_f*m + cn_f*n)^(-beta_f) is summed
exactly over its inner variable.  `_oriented` reads each factor once for
that orientation: cm*m + cn*n = cn*(n + (cm/cn)*m), or a bare cm*m
counted in the outer power A, with cn^-beta (or cm^-beta) in one
rational prefactor.  Exact partial fractions turn each inner sum into
Hurwitz zeta and digamma values.  Shift-0 terms do not depend on the
outer variable, so their outer sum is exact, zeta(j) zeta(A+B-j) with
Euler's gamma for zeta(1), read from mpmath directly.  Every other term
is summed to a cutoff M; its tail is one Euler-Maclaurin series in
zeta(r, M+1) (psi(1+qm) is the j = 1 case of zeta(j, 1+qm)) with exact
rational coefficients, plus a log q term and a zeta'(r0, M+1) term at
the lowest power r0.  The tail bound is the first omitted term of each
expansion (the summands are completely monotone): results carry a
rigorous bound or the evaluation raises; nothing is silently truncated.

Every other Hurwitz value comes from `_hurwitz(j, x, dps)`: zeta(j, x),
or -psi(x) at j = 1, at an exact rational x converted to mpf once and
memoized by (j, x, derivative order, dps).  The tail's values, its
bound's and `eval_constant`'s zeta(j, r/N) share the process-wide
`_hurwitz_table`.  The head's zeta(j, 1+qm) and -psi(1+qm) go to a
table made per `lattice_sum` call, since a process-wide one would keep
every (j, 1+qm) ever summed; coinciding arguments (the G2 shifts 1, 2,
3 and 3/2 share 1+24 = 1+2*12 = 1+3*8 = 1+(3/2)*16) and an escalating
call's earlier passes cost one call each.  Each pass converts its
coefficients to mpf once, and forms each shift's argument and each
distinct power of m once per m.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cache
from math import comb, factorial, ceil, log10, perm

from mpmath import mp

from .arith import bernoulli_number
from .constants import BaseConstant, SymbolicValue

_MAX_CUTOFF = 50000
_ABS_FLOOR = mp.mpf("1e-30")  # check_values and lattice_sum scale by |value| above it


class PrecisionError(RuntimeError):
    """Requested tolerance not reachable within the evaluation budget."""


class Precision(namedtuple("Precision", "digits tolerance")):
    __slots__ = ()

    def __new__(cls, digits: int = 30, tolerance: float = 1e-10):
        if type(digits) is not int or not isinstance(tolerance, float):
            raise ValueError("digits must be an int and tolerance a float")
        if not (0 < tolerance < 1):
            raise ValueError("tolerance must be in (0,1)")
        need = ceil(-log10(tolerance)) + 10
        if digits < need:
            raise ValueError(
                f"{digits} digits leaves no guard digits for "
                f"tolerance {tolerance}; need >= {need}")
        return super().__new__(cls, digits, tolerance)

    @property
    def dps(self) -> int:
        # internal guard digits on top of the reporting precision
        return self.digits + 10


DEFAULT_PRECISION = Precision()


class NumericCheckRecord(namedtuple(
        "NumericCheckRecord", "label lhs rhs abs_residual rel_residual "
        "tolerance digits passed cutoff tail_bound", defaults=(None, None))):
    __slots__ = ()

    def as_json_dict(self) -> dict:
        return self._asdict()


def check_values(lhs, rhs, precision: Precision = DEFAULT_PRECISION,
                 label: str = "", cutoff: int | None = None,
                 tail_bound: str | None = None) -> NumericCheckRecord:
    """Compare two reals: the residual is relative to max(|rhs|, 1e-30), the
    scale that lattice_sum's tail bound meets."""
    with mp.workdps(precision.dps):
        lhs, rhs = mp.mpf(lhs), mp.mpf(rhs)
        diff = abs(lhs - rhs)
        rel = diff / max(abs(rhs), _ABS_FLOOR)
        passed = rel <= mp.mpf(precision.tolerance)
        return NumericCheckRecord(
            label=label, lhs=mp.nstr(lhs, precision.digits),
            rhs=mp.nstr(rhs, precision.digits),
            abs_residual=mp.nstr(diff, 5), rel_residual=mp.nstr(rel, 5),
            tolerance=precision.tolerance, digits=precision.digits,
            passed=bool(passed), cutoff=cutoff, tail_bound=tail_bound)


# ------------------------------------------------------------ constants

# zeta(j, x) or -psi(x) by (j, exact x, derivative order, dps), for the
# tail, its bound and eval_constant; small enough to need no bound
_hurwitz_table: dict[tuple, object] = {}


def _hurwitz(j, x, dps, derivative=0, table=_hurwitz_table):
    """zeta(j, x), or its s-derivative, at an exact rational x; -psi(x) at
    j = 1, negated exactly so that psi's guard bits survive.  Memoized in
    `table`."""
    key = (j, x, derivative, dps)
    v = table.get(key)
    if v is None:
        with mp.workdps(dps):
            a = mp.mpf(x.numerator) / x.denominator
            v = table[key] = (mp.zeta(j, a, derivative) if j >= 2
                              else mp.fneg(mp.psi(0, a), exact=True))
    return v


@cache
def eval_constant(c: BaseConstant, precision: Precision = DEFAULT_PRECISION):
    """One base constant as a real at working precision, memoized.

    Every constant but pi is one periodic Hurwitz sum,
    N^-j sum_{r=1..N} w_r zeta(j, r/N) with w_r = cos(2 pi r d/N) for
    C_j(d/N), sin(2 pi r d/N) for S_j(d/N), or chi3(r) (N = 3) for
    L(j,chi3), and -psi(r/N) at j = 1; zeta(j) = C_j(0) is the sum at
    N = 1, mpmath's zeta(j, 1).  `_hurwitz` keeps psi's guard bits, so
    integer weights multiply exactly: the sum rounds once.
    """
    with mp.workdps(precision.dps):
        if c.kind == "pi":
            v = +mp.pi
        else:
            j = c.index
            if c.kind == "L3":
                N, weights = 3, {1: 1, 2: -1}
            else:
                N, d = c.angle.denominator, c.angle.numerator
                # the cosine (C_j, and zeta(j) = C_j(0/1)) is exactly 0 where
                # 4rd/N is an odd integer, the sine where it is an even one:
                # no Hurwitz value is read there
                trig, zero = (mp.sin, 0) if c.kind == "S" else (mp.cos, N)
                weights = {r: trig(2 * mp.pi * r * d / N) for r in range(1, N + 1)
                           if 4 * r * d % (2 * N) != zero}
            v = mp.fsum(mp.fmul(w, _hurwitz(j, Fraction(r, N), precision.dps),
                                exact=isinstance(w, int))
                        for r, w in weights.items()) / mp.mpf(N) ** j
    return v


def eval_symbolic(v: SymbolicValue, precision: Precision = DEFAULT_PRECISION):
    """Exact-coefficient sum of evaluated monomials."""
    with mp.workdps(precision.dps):
        total = mp.mpf(0)
        for mono, coeff in v.terms():
            x = mp.mpf(coeff.numerator) / coeff.denominator
            for sym, e in mono:
                x *= eval_constant(sym, precision) ** e
            total += x
        return total


# ------------------------------------------------------------ lattice sums

def _partial_fraction_coeffs(shifts_betas):
    """1/prod_i (u+q_i)^{b_i} = sum gamma_{i,j}/(u+q_i)^j as {(q_i,j): gamma}.

    In t = u+q_i the other factors are prod_l (d_l+t)^{-b_l}, d_l = q_l-q_i,
    and gamma_{i,b_i-k} is the t^k coefficient of the product of their
    binomial series (d+t)^{-b} = sum_k C(b+k-1,k) (-1)^k d^{-b-k} t^k.
    """
    out = {}
    for qi, bi in shifts_betas:
        series = [Fraction(1)] + [Fraction(0)] * (bi - 1)
        for ql, bl in shifts_betas:
            if ql != qi:
                d = ql - qi
                factor = [comb(bl + k - 1, k) * (-1) ** k * d ** (-bl - k)
                          for k in range(bi)]
                series = [sum(series[i] * factor[k - i] for i in range(k + 1))
                          for k in range(bi)]
        out.update(((qi, bi - k), g) for k, g in enumerate(series))
    return out


def _oriented(factors, swap):
    """[(cm, cn, beta)] -> (A, {shift: beta}, prefactor), n summed exactly
    (m if `swap`): cm*m + cn*n = cn*(n + (cm/cn)*m) with cn^-beta in the
    prefactor, or cm*m, counted in A, with cm^-beta when cn = 0."""
    A, shifts, pref = 0, defaultdict(int), Fraction(1)
    for cm, cn, beta in factors:
        if (any(type(x) is not int for x in (cm, cn, beta)) or cm < 0
                or cn < 0 or (cm, cn) == (0, 0) or beta < 1):
            raise ValueError(f"bad factor ({cm},{cn})^{beta}")
        cm, cn = (cn, cm) if swap else (cm, cn)
        if cn:
            shifts[Fraction(cm, cn)] += beta
        else:
            A += beta
        pref *= Fraction(cn or cm) ** -beta
    return A, dict(shifts), pref


def _lattice_pass(A, shifts, pref, dps, M, K, heads):
    """One pass at cutoff M: (value, tail_bound) of pref * sum_{m,n>=1}
    m^-A prod_q (n+q*m)^-shifts[q], reading and extending `heads`."""
    B = sum(shifts.values())
    if B < 2:
        raise ValueError("inner sum does not converge")
    if A + B < 3:
        raise ValueError("outer sum does not converge")
    r0 = A + B - 1  # the lowest power of 1/m in the tail

    gamma = _partial_fraction_coeffs(sorted(shifts.items()))
    # residues of the 1/u parts sum to zero; the log divergences of the
    # digamma terms cancel pairwise because of it
    if sum(g for (q, j), g in gamma.items() if j == 1) != 0:
        raise RuntimeError("residues of the 1/u parts do not sum to zero")

    with mp.workdps(dps):
        def mpq(x):
            return mp.mpf(x.numerator) / x.denominator

        # shift 0 does not depend on m, so its outer sum is exact:
        # g zeta(j) zeta(A+B-j), with euler-gamma = -psi(1) for zeta(1).
        # Every other term has a head over m <= M from `heads` and a tail
        # over m > M from the Euler-Maclaurin series in x = qm of
        #   zeta(j, 1+x) ~ x^(1-j)/(j-1) - x^-j/2
        #                  + sum_rr B_2rr/(2rr)! j(j+1)...(j+2rr-2) x^(1-j-2rr)
        # and of -psi(1+x), its j = 1 case with -log x for the pole.
        # c[r] multiplies zeta(r, M+1), exactly; -log q and the -log m of
        # -log x multiply zeta(r0, M+1) and -zeta'(r0, M+1)
        shift0 = log_q = bound = mp.mpf(0)
        terms = []
        c: dict[int, Fraction] = defaultdict(Fraction)
        log_m = Fraction(0)
        bf = [bernoulli_number(2 * rr, "at-zero") / factorial(2 * rr)
              for rr in range(K + 2)]  # B_2rr / (2rr)!
        for (q, j), g in gamma.items():
            if q == 0:
                if A + B - j < 2:
                    raise ValueError("outer sum does not converge")
                shift0 += (mpq(g) * (mp.zeta(j) if j >= 2 else mp.euler)
                           * mp.zeta(A + B - j))
                continue
            terms.append((q, j, mpq(g)))
            if j >= 2:
                c[r0] += g * q ** (1 - j) / (j - 1)
            else:
                log_q -= mpq(g) * mp.log(mpq(q))
                log_m -= g
            c[r0 + 1] -= g * q ** -j / 2
            for rr in range(1, K + 1):
                rise = perm(j + 2 * rr - 2, 2 * rr - 1)  # j (j+1) ... (j+2rr-2)
                c[r0 + 2 * rr] += g * bf[rr] * rise * q ** (1 - j - 2 * rr)
            omit = abs(g * bf[K + 1] * perm(j + 2 * K, 2 * K + 1)
                       * q ** (-1 - j - 2 * K))
            bound += mpq(omit) * _hurwitz(r0 + 2 * K + 2, M + 1, dps)

        # zeta(j, 1+qm) or -psi(1+qm) from `heads`; each exact argument
        # 1+qm and each exponent of m (j - B for every term, and -A) once per m
        qs = {q for q, _, _ in terms}
        exponents = {j - B for _, j, _ in terms} | {-A}

        def inner_sum(m):
            power = {e: mp.power(m, e) for e in exponents}
            arg = {q: 1 + q * m for q in qs}
            tot = mp.mpf(0)
            for q, j, gm in terms:
                tot += gm * power[j - B] * _hurwitz(j, arg[q], dps, table=heads)
            return tot * power[-A]

        head = mp.fsum(inner_sum(m) for m in range(1, M + 1))
        # a zero coefficient adds an exact 0, so its zeta is not evaluated
        tail = mp.mpf(0)
        for val, r, derivative in ([(log_q, r0, 0), (-mpq(log_m), r0, 1)]
                                   + [(mpq(v), r, 0) for r, v in sorted(c.items())]):
            if val:
                tail += val * _hurwitz(r, M + 1, dps, derivative)

        return (shift0 + head + tail) * mpq(pref), abs(bound * mpq(pref))


def lattice_sum(factors, precision: Precision = DEFAULT_PRECISION,
                cutoff: int | None = None, swap: bool | None = None,
                order: int = 10):
    """sum_{m,n>=1} prod (cm*m+cn*n)^-beta with a rigorous tail bound.

    factors: iterable of (cm, cn, beta).  Returns (value, bound, M) with
    M the final outer cutoff.  The orientation (which variable is summed
    exactly) is chosen to maximize the smallest Hurwitz shift unless
    `swap` forces it; `cutoff` seeds the outer cutoff M, which doubles
    until the bound meets tolerance.
    """
    factors = list(factors)
    forms = {s: _oriented(factors, s) for s in (False, True)}
    qmin = {s: min(filter(None, f[1]), default=1) for s, f in forms.items()}
    if swap is None:
        swap = qmin[True] > qmin[False]
    A, shifts, pref = forms[swap]

    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, not {cutoff}")
    if order < 0:
        raise ValueError(f"order must be >= 0, not {order}")
    M = cutoff if cutoff is not None else max(40, int(24 / qmin[swap]) + 1)
    heads: dict[tuple, object] = {}  # head values, for this call only
    while True:
        value, bound = _lattice_pass(A, shifts, pref, precision.dps, M,
                                     order, heads)
        target = mp.mpf(precision.tolerance) * max(abs(value), _ABS_FLOOR)
        if bound <= target:
            return value, bound, M
        if 2 * M > _MAX_CUTOFF:
            raise PrecisionError(
                f"tail bound {mp.nstr(bound, 3)} above tolerance at cutoff {M}")
        M *= 2


def verify(values: dict[str, SymbolicValue], factors,
           precision: Precision = DEFAULT_PRECISION) -> dict[str, NumericCheckRecord]:
    """Check each named closed form against one lattice sum over `factors`.

    Records are keyed like `values`, labelled "<name> vs series" and
    carry the oracle's final cutoff and tail bound; deciding what a
    failure means is left to the caller.
    """
    series, bound, cutoff = lattice_sum(factors, precision)
    return {name: check_values(eval_symbolic(v, precision), series, precision,
                               label=f"{name} vs series", cutoff=cutoff,
                               tail_bound=mp.nstr(bound, 5))
            for name, v in values.items()}
