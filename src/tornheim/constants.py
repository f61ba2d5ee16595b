"""Symbolic constants: exact Q-linear combinations of monomials in
pi, zeta(j), Clausen values and Dirichlet L-values, all real.

Conventions:
    C_j(q) = Re Li_j(e^{2 pi i q})      S_j(q) = Im Li_j(e^{2 pi i q})
    L(j,chi3) with chi3(n) = +1, -1, 0 for n = 1, 2, 0 mod 3

Canonical form: Clausen angles are reduced mod 1 and reflected into
(0, 1/2); the reducible angles ({0, 1/2, 1/3, 1/6} for C, {0, 1/2, 1/6}
for S) are rewritten to rational multiples of zeta(j) or S_j(1/3), so
equal values within the rule set have equal term maps and == is
syntactic.  No relation holds between the symbols of a monomial: a value
is a vector over monomials, and sqrt(3) appears only inside the Dirichlet
rewrite, counted from S_j(1/3) factors.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
import json

from .arith import Rational, bernoulli_number, bernoulli_poly

_KIND_ORDER = {"zeta": 0, "C": 1, "S": 2, "L3": 3, "pi": 4}

# a stable description of the canonicalization rules; hashed into output
# records so consumers can tell when the canonical form changed meaning
RULES_DOC = (
    "angle-reduction/1: q mod 1; reflect (C even, S odd) to (0,1/2];"
    " S(0)=S(1/2)=0; C(0)=zeta; C(1/2)=(2^(1-j)-1)zeta;"
    " C(1/3)=(1-3^(j-1))/(2*3^(j-1))zeta; C(1/6)=(2^(1-j)-1)C(1/3);"
    " S(1/6)=(1+2^(1-j))S(1/3); i^4=1; sqrt3^2=3;"
    " dirichlet/1: S_j(1/3)=(sqrt3/2)L(j,chi3); pi^(2n)=ratio*zeta(2n);"
    " sqrt3*pi^j=L(j,chi3)/q_j (odd j); bare zeta(k) kept"
)


class BaseConstant(namedtuple("BaseConstant", "kind index angle")):
    __slots__ = ()

    def __new__(cls, kind: str, index: int = 0, angle: Fraction = Fraction(0)):
        if kind == "pi":
            if index != 0 or angle != 0:
                raise ValueError("pi takes no index/angle")
        elif kind == "zeta":
            if index < 2 or angle != 0:
                raise ValueError("zeta index must be >= 2")
        elif kind == "L3":
            if index < 1 or angle != 0:
                raise ValueError("L(j,chi3) index must be >= 1")
        elif kind in ("C", "S"):
            if index < 2:
                raise ValueError("Clausen index must be >= 2")
            if not (0 < angle < Fraction(1, 2)):
                raise ValueError(f"Clausen angle {angle} not canonical")
            if angle == Fraction(1, 6) or (kind == "C" and angle == Fraction(1, 3)):
                raise ValueError(f"angle {angle} is reducible; use reduce_angle")
        else:
            raise ValueError(f"unknown constant kind {kind!r}")
        return super().__new__(cls, kind, index, angle)

    @property
    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.index, self.angle)

    @property
    def weight(self) -> int:
        return 1 if self.kind == "pi" else self.index


PI = BaseConstant("pi")


def zeta(j: int) -> BaseConstant:
    return BaseConstant("zeta", j)


def dirichlet_l3(j: int) -> BaseConstant:
    return BaseConstant("L3", j)


def clausen_c(j: int, q: Rational) -> BaseConstant:
    return BaseConstant("C", j, Fraction(q))


def clausen_s(j: int, q: Rational) -> BaseConstant:
    return BaseConstant("S", j, Fraction(q))


# a monomial is a sorted tuple of (BaseConstant, exponent >= 1) pairs
Monomial = tuple


def _normalize_monomial(factors) -> Monomial:
    """Merge duplicate symbols; one whose exponents sum to 0 is dropped, and
    a net negative power is a ValueError."""
    exps: dict[BaseConstant, int] = {}
    for sym, e in factors:
        if e:
            exps[sym] = exps.get(sym, 0) + e
    if any(e < 0 for e in exps.values()):
        raise ValueError(f"negative power in monomial {factors!r}")
    return tuple(sorted(((s, e) for s, e in exps.items() if e > 0),
                        key=lambda p: p[0].sort_key))


def mono_weight(mono: Monomial) -> int:
    return sum(sym.weight * e for sym, e in mono)


def _mono_exp(mono: Monomial, sym: BaseConstant) -> int:
    for s, e in mono:
        if s == sym:
            return e
    return 0


def _display_key(mono: Monomial):
    consts = tuple((p[0].sort_key, p[1]) for p in mono if p[0] != PI)
    return (_mono_exp(mono, PI), len(consts), consts,
            tuple((p[0].sort_key, p[1]) for p in mono))


class SymbolicValue:
    """Exact rational linear combination of constant monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        self._terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self._terms[mono] = Fraction(coeff)

    @classmethod
    def zero(cls) -> "SymbolicValue":
        return cls()

    @classmethod
    def from_terms(cls, terms) -> "SymbolicValue":
        """Sum of coeff * prod(factors) over (coeff, factors) pairs, summed
        in one dict and built once."""
        out: dict[Monomial, Fraction] = {}
        for coeff, factors in terms:
            mono = _normalize_monomial(factors)
            out[mono] = out.get(mono, Fraction(0)) + Fraction(coeff)
        return cls(out)

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: _display_key(t[0]))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, factors) -> Fraction:
        """Coefficient of the monomial given as (symbol, exponent) pairs."""
        return self._terms.get(_normalize_monomial(factors), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return SymbolicValue(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SymbolicValue({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        """Scalar multiple by an int or a Fraction."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return SymbolicValue({m: c * other for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        return f"SymbolicValue({to_text(self)!r})"


def reduce_angle(kind: str, j: int, q: Rational) -> SymbolicValue:
    """Canonical value of C_j(q) or S_j(q) for rational q."""
    if kind not in ("C", "S"):
        raise ValueError("kind must be 'C' or 'S'")
    if j < 2:
        raise ValueError("Clausen index must be >= 2 (polylog divergence)")
    q = Fraction(q) % 1
    coeff = Fraction(1)
    if q > Fraction(1, 2):
        q = 1 - q
        if kind == "S":
            coeff = -coeff
    if kind == "S":
        if q == 0 or q == Fraction(1, 2):
            return SymbolicValue.zero()
        if q == Fraction(1, 6):  # S_j(1/6) = (1 + 2^(1-j)) S_j(1/3)
            coeff, q = coeff * (1 + Fraction(1, 2 ** (j - 1))), Fraction(1, 3)
        sym = clausen_s(j, q)
    elif 6 % q.denominator == 0:
        # C_j(q) / zeta(j) is 1 at q = 0, 2^(1-j) - 1 at 1/2,
        # (1 - 3^(j-1)) / (2 * 3^(j-1)) at 1/3, and their product at 1/6
        if q.denominator % 2 == 0:
            coeff = Fraction(1, 2 ** (j - 1)) - 1
        if q.denominator % 3 == 0:
            coeff *= Fraction(1 - 3 ** (j - 1), 2 * 3 ** (j - 1))
        sym = zeta(j)
    else:
        sym = clausen_c(j, q)
    return SymbolicValue.from_terms([(coeff, [(sym, 1)])])


def exact_L_rational(j: int) -> Fraction:
    """q_j with L(j,chi3) = q_j * sqrt(3) * pi^j, for odd j >= 1."""
    if j < 1 or j % 2 == 0:
        raise ValueError("closed form exists only for odd index >= 1")
    sign = -1 if ((j + 1) // 2) % 2 else 1
    return sign * Fraction(2 ** j) * bernoulli_poly(j, Fraction(1, 3)) / (3 * factorial(j))


def _pi_even_to_zeta(e: int) -> Fraction:
    # pi^(2n) = ratio * zeta(2n) by zeta(2n) = (-1)^(n+1) B_2n (2pi)^(2n) / (2 (2n)!)
    n = e // 2
    z_coeff = Fraction((-1) ** (n + 1)) * bernoulli_number(e, "at-zero") \
        * Fraction(2 ** e) / (2 * factorial(e))
    return 1 / z_coeff


def g2_field_error(v: SymbolicValue) -> str | None:
    """Why v lies outside the G2 constant field {pi, zeta, S_j(1/3)}:
    it holds a C_j, or an S_j at an angle other than 1/3.  None if inside."""
    for mono, _ in v.terms():
        for sym, _ in mono:
            if sym.kind == "C" or (sym.kind == "S" and sym.angle != Fraction(1, 3)):
                return f"not in G2 constant field: {_sym_text(sym, 1)}"
    return None


def to_dirichlet_basis(v: SymbolicValue, k: int) -> SymbolicValue:
    """Rewrite an odd-weight value over {pi, zeta, S_j(1/3)} into products
    zeta(a)zeta(b) / L(a,chi3)L(b,chi3) (bare zeta(k) kept), one monomial
    at a time: S_j(1/3) = (sqrt3/2) L(j,chi3) with its sqrt3s paired into
    3s, then pi^e is L(e,chi3)/q_e beside a lone sqrt3 (e odd), else a
    multiple of zeta(e)."""
    if k % 2 == 0:
        raise ValueError("weight must be odd")
    outside = g2_field_error(v)
    if outside:
        raise ValueError(outside)
    products = []
    for mono, coeff in v.terms():
        s3 = e_pi = 0
        rest = []
        for sym, e in mono:
            if sym.kind == "S":
                coeff /= 2 ** e
                s3 += e
                rest.append((dirichlet_l3(sym.index), e))
            elif sym == PI:
                e_pi = e
            else:
                rest.append((sym, e))
        coeff *= 3 ** (s3 // 2)
        if s3 % 2:
            if e_pi % 2 == 0:
                raise ValueError("sqrt(3) with even pi power has no L-product form")
            coeff /= exact_L_rational(e_pi)
            rest.append((dirichlet_l3(e_pi), 1))
        elif e_pi:
            if e_pi % 2:
                raise ValueError("odd pi power without sqrt(3) has no product form")
            coeff *= _pi_even_to_zeta(e_pi)
            rest.append((zeta(e_pi), 1))
        products.append((coeff, rest))
    out = SymbolicValue.from_terms(products)
    for mono, _ in out.terms():
        if mono_weight(mono) != k:
            raise ValueError(f"weight {mono_weight(mono)} term in weight-{k} value")
    return out


# ---------------------------------------------------------------- printing

def _sym_text(sym: BaseConstant, e: int) -> str:
    if sym == PI:
        s = "π"
    elif sym.kind == "zeta":
        s = f"ζ({sym.index})"
    elif sym.kind == "L3":
        s = f"L({sym.index},χ3)"
    else:
        s = f"{sym.kind}_{sym.index}({sym.angle})"
    return s if e == 1 else f"{s}^{e}"


def _join_terms(v: SymbolicValue, render, sep: str) -> str:
    """v's terms as a signed sum; render(mono, |coeff|) draws one term and
    sep surrounds the sign between terms."""
    out = ""
    for mono, coeff in v.terms():
        if out:
            out += sep + ("-" if coeff < 0 else "+") + sep
        elif coeff < 0:
            out = "-"
        out += render(mono, abs(coeff))
    return out or "0"


def _term_text(mono: Monomial, coeff: Fraction) -> str:
    body = "".join(_sym_text(s, e)  # pi first
                   for s, e in sorted(mono, key=lambda p: p[0] != PI))
    n, d = coeff.numerator, coeff.denominator
    if d == 1:
        return ("" if (n == 1 and body) else str(n)) + body
    return f"{n}/{d}" + (" " if body else "") + body


def to_text(v: SymbolicValue) -> str:
    return _join_terms(v, _term_text, " ")


def _script_latex(mark: str, x: int) -> str:
    return f"{mark}{x}" if x < 10 else f"{mark}{{{x}}}"


def _exp_latex(e: int) -> str:
    return "" if e == 1 else _script_latex("^", e)


def _sym_latex(sym: BaseConstant, e: int) -> str:
    if sym.kind == "zeta":
        s = rf"\zeta({sym.index})"
    elif sym.kind == "L3":
        s = rf"L({sym.index},\chi_3)"
    else:
        q = sym.angle
        s = (sym.kind + _script_latex("_", sym.index)
             + rf"(\tfrac{{{q.numerator}}}{{{q.denominator}}})")
    return s + _exp_latex(e)


def _term_latex(mono: Monomial, coeff: Fraction) -> str:
    pi_e = _mono_exp(mono, PI)
    numerator = ((str(coeff.numerator) if coeff.numerator != 1 else "")
                 + (r"\pi" + _exp_latex(pi_e) if pi_e else ""))
    consts = "".join(_sym_latex(s, e) for s, e in mono if s != PI)
    if coeff.denominator == 1:
        return (numerator + consts) or "1"
    return rf"\frac{{{numerator or '1'}}}{{{coeff.denominator}}}" + consts


def to_latex(v: SymbolicValue) -> str:
    return _join_terms(v, _term_latex, "")


# ------------------------------------------------------------ serialization

def to_json_dict(v: SymbolicValue) -> dict:
    terms = []
    for mono, coeff in v.terms():
        factors = []
        for sym, e in mono:
            f = {"kind": sym.kind, "exp": e}
            if sym != PI:
                f["index"] = sym.index
            if sym.kind in ("C", "S"):
                f["angle"] = [str(sym.angle.numerator), str(sym.angle.denominator)]
            factors.append(f)
        terms.append({"num": str(coeff.numerator),
                      "den": str(coeff.denominator),
                      "factors": factors})
    return {"terms": terms}


def _json_fraction(num, den) -> Fraction:
    if not all(type(x) is int or type(x) is str and x.lstrip("-").isdigit()
               for x in (num, den)):
        raise ValueError(f"fraction parts must be integers, not {num!r}/{den!r}")
    if int(den) == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(int(num), int(den))


def from_json_dict(d: dict) -> SymbolicValue:
    """The value of a to_json_dict record; ValueError for a malformed one."""
    terms = []
    try:
        # a string or a dict where a list belongs would iterate as one
        if any(type(x) is not list for x in [d["terms"], *(t["factors"] for t in d["terms"])]):
            raise ValueError("terms and factors must be lists")
        for t in d["terms"]:
            coeff = _json_fraction(t["num"], t["den"])
            factors = []
            for f in t["factors"]:
                index = f.get("index", 0)
                if type(index) is not int:
                    raise ValueError(f"constant index must be an integer, not {index!r}")
                num, den = f.get("angle", (0, 1))
                sym = BaseConstant(f["kind"], index, _json_fraction(num, den))
                e = f["exp"]
                if type(e) is not int or e < 1:
                    raise ValueError(f"factor exponent must be an integer >= 1, not {e!r}")
                factors.append((sym, e))
            terms.append((coeff, factors))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed value record: {exc!r}") from exc
    return SymbolicValue.from_terms(terms)


def to_json(v: SymbolicValue) -> str:
    return json.dumps(to_json_dict(v))


def from_json(s: str) -> SymbolicValue:
    return from_json_dict(json.loads(s))
