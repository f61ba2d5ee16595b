"""Exact partial-fraction rewriting for products of powers of linear
forms cm*m + cn*n.

A TermSum is a Q-linear combination of products prod_f f^(-e_f).  The
atomic rewrite eliminates two forms u, w of a term through m: with
d = u.cm w.cn - u.cn w.cm != 0, (w.cn) u - (u.cn) w = d m, so

    1/(u w) = (1/m) (a/w + b/u),    a = w.cn/d, b = -u.cn/d,

applied to u^-r w^-s until one of u, w disappears from each branch; the
r + s resulting terms have binomial coefficients and are written directly
(split_pair).  The reducer drives a product of forms down to the shape
m^-e1 n^-e2 (am+bn)^-e3 whose lattice sum is zeta_{a,b}(e1,e2,e3), merging
equal terms before each level of splits, and proves its result equal to its
input once, exactly, at degree + 1 points (verify_step).  The product needs
a power of n and a form other than m and n; a power of m too, unless it has
two such forms (each split adds one).
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd, prod


class LinearForm(namedtuple("LinearForm", "cm cn")):
    __slots__ = ()

    def __new__(cls, cm: int, cn: int):
        if cm < 0 or cn < 0 or (cm, cn) == (0, 0):
            raise ValueError("form coefficients must be nonnegative, not both zero")
        if gcd(cm, cn) != 1:
            raise ValueError("forms are stored primitive; carry the gcd in the coefficient")
        return super().__new__(cls, cm, cn)


FORM_M = LinearForm(1, 0)
FORM_N = LinearForm(0, 1)
G2_TARGETS = (LinearForm(1, 1), LinearForm(1, 2), LinearForm(1, 3),
              LinearForm(2, 3))
G2_FORMS = (FORM_M, FORM_N) + G2_TARGETS


RELATIONS_DOC = ("g2-relations/2: for the two smallest non-basis forms u, w "
                 "of a term, +-((w.cn)u - (u.cn)w) = c m with c > 0")


class TermProduct(namedtuple("TermProduct", "coeff exponents")):
    __slots__ = ()

    @classmethod
    def make(cls, coeff, exponents) -> "TermProduct":
        exps: dict[LinearForm, int] = {}
        for f, e in exponents:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e:
                exps[f] = exps.get(f, 0) + e
        ordered = tuple(sorted(exps.items()))
        return cls(Fraction(coeff), ordered)

    def exponent(self, form: LinearForm) -> int:
        for f, e in self.exponents:
            if f == form:
                return e
        return 0

    @property
    def weight(self) -> int:
        return sum(e for _, e in self.exponents)


class TermSum(tuple):
    """A sum of TermProducts, held as the tuple of its terms."""
    __slots__ = ()

    def __new__(cls, terms):
        return super().__new__(cls, terms)

    def __repr__(self):
        return f"TermSum(terms={self.terms!r})"

    @property
    def terms(self) -> tuple[TermProduct, ...]:
        return tuple(self)

    @classmethod
    def make(cls, terms) -> "TermSum":
        merged: dict[tuple, Fraction] = {}
        for t in terms:
            merged[t.exponents] = merged.get(t.exponents, Fraction(0)) + t.coeff
        kept = tuple(TermProduct(c, ex) for ex, c in sorted(merged.items()) if c)
        return cls(kept)


def split_pair(t: TermProduct, u: LinearForm, w: LinearForm) -> TermSum:
    """Eliminate the (u,w) pair from t through m; output terms carry
    pairs (m,u) or (m,w) only, weights preserved.

    With a = w.cn/d, b = -u.cn/d (d = u.cm w.cn - u.cn w.cm) and r, s the
    exponents of u, w, the r + s terms are written directly:

      u^-r w^-s = sum_{j<s} C(r-1+j, j) a^r b^j m^-(r+j) w^-(s-j)
                + sum_{i<r} C(s-1+i, i) a^i b^s m^-(s+i) u^-(r-i)
    """
    r, s = t.exponent(u), t.exponent(w)
    d = u.cm * w.cn - u.cn * w.cm
    if r < 1 or s < 1 or not d:
        raise ValueError("term must contain two distinct forms u, w")
    a, b = Fraction(w.cn, d), Fraction(-u.cn, d)
    rest = [(f, e) for f, e in t.exponents if f != u and f != w]
    out = [TermProduct.make(t.coeff * comb(r - 1 + j, j) * a ** r * b ** j,
                            rest + [(FORM_M, r + j), (w, s - j)])
           for j in range(s)]
    out += [TermProduct.make(t.coeff * comb(s - 1 + i, i) * a ** i * b ** s,
                             rest + [(FORM_M, s + i), (u, r - i)])
            for i in range(r)]
    return TermSum.make(out)


# ------------------------------------------------------ exact verification

def verify_step(before: TermSum, after: TermSum) -> bool:
    """True iff the sums agree as rational functions of (m,n).

    A term c prod f^-e of weight w is homogeneous of degree -w, so each
    weight's part must vanish alone.  Times prod f^top_f (top_f its largest
    exponent of f) a part is a homogeneous polynomial of degree
    D = sum top_f - w, zero iff zero at n = 1 and m = 1..D+1; no form
    cm m + cn (cm, cn >= 0) vanishes there, so the part is evaluated."""
    parts: dict[int, list] = {}
    for sign, ts in ((1, before), (-1, after)):
        for t in ts:
            parts.setdefault(t.weight, []).append((sign * t.coeff, t.exponents))
    for w, terms in parts.items():
        top: dict[LinearForm, int] = {}
        for _, exps in terms:
            for f, e in exps:
                top[f] = max(top.get(f, 0), e)
        for m in range(1, sum(top.values()) - w + 2):
            if sum(c / prod((f.cm * m + f.cn) ** e for f, e in exps)
                   for c, exps in terms):
                return False
    return True


RewriteStep = namedtuple("RewriteStep", "term u w produced")


def _term_json(t: TermProduct) -> dict:
    return {"coeff": [str(t.coeff.numerator), str(t.coeff.denominator)],
            "factors": [{"form": [f.cm, f.cn], "exp": e}
                        for f, e in t.exponents]}


def trace_to_json(trace) -> list:
    """Each step as JSON; its relation is alpha u + beta w = c m, c > 0."""
    out = []
    for st in trace:
        u, w = st.u, st.w
        sign = 1 if u.cm * w.cn - u.cn * w.cm > 0 else -1
        out.append({
            "term": _term_json(st.term),
            "pair": [[u.cm, u.cn], [w.cm, w.cn]],
            "relation": {"alpha": str(sign * w.cn), "beta": str(-sign * u.cn),
                         "v": [1, 0]},
            "produced": [_term_json(t) for t in st.produced],
        })
    return out


def _nonbasis(t: TermProduct) -> list[LinearForm]:
    return [f for f, _ in t.exponents if f not in (FORM_M, FORM_N)]


def tornheim_parameters(t: TermProduct) -> tuple[int, int, int, int, int]:
    """(a, b, e1, e2, e3) of a term m^-e1 n^-e2 (am+bn)^-e3, whose lattice
    sum is zeta_{a,b}(e1,e2,e3); ValueError for any other shape."""
    nonbasis = _nonbasis(t)
    e1, e2 = t.exponent(FORM_M), t.exponent(FORM_N)
    if len(nonbasis) != 1 or e1 < 1 or e2 < 1:
        raise ValueError(f"term {t} is not in double-series shape")
    (form,) = nonbasis
    return form.cm, form.cn, e1, e2, t.exponent(form)


def reduce_to_tornheim(ts: TermSum, trace: list | None = None) -> TermSum:
    """Rewrite every term down to the shape m^-e1 n^-e2 (am+bn)^-e3.

    Deterministic strategy, one level at a time: equal terms are merged,
    then in every term the two smallest distinct non-basis forms are
    eliminated through m by split_pair.  A split trades one
    non-basis form for m, so one level per distinct non-basis form of the
    input suffices.  tornheim_parameters checks each result term, which
    rejects one with two non-basis forms left, and one exact verify_step
    proves result == ts.
    """
    done, level = [], list(ts)
    for _ in range(len({f for t in ts for f in _nonbasis(t)})):
        pieces = []
        for t in TermSum.make(level):
            nonbasis = _nonbasis(t)
            if len(nonbasis) <= 1:
                done.append(t)
                continue
            u, w = nonbasis[0], nonbasis[1]
            produced = split_pair(t, u, w)
            if trace is not None:
                trace.append(RewriteStep(t, u, w, produced))
            pieces.extend(produced)
        level = pieces
    result = TermSum.make(done + level)
    for t in result:
        tornheim_parameters(t)
    if not verify_step(ts, result):
        raise RuntimeError("reduction failed exact verification against its input")
    return result
