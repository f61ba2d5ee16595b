"""End-to-end evaluation of the six-form lattice zeta value

    zeta(k1..k6; G2) = sum_{m,n>0} 1/(m^k1 n^k2 (m+n)^k3 (m+2n)^k4
                                      (m+3n)^k5 (2m+3n)^k6)

at odd weight: partial-fraction reduction to double series
zeta_{a,b}(e1,e2,e3) with (a,b) in {(1,1),(1,2),(1,3),(2,3)}, closed
forms via the parity engine, and conversion to the product basis
zeta(2n)zeta(k-2n) / L(2n+1,chi3)L(k-2n-1,chi3).

The process keeps one Clausen closed form per distinct reduced term in
`_closed_forms`, filled on first use.  G2 requests of one weight share
few terms (12, 40, 84 and 144 distinct terms at weights 7, 9, 11 and
13), so the dict is bounded by them and needs no limit.  Every entry
passed `closed_form`'s own checks when it was computed.

Every result is verified against the high-precision double series
before it is returned; an identity that fails its numeric check raises
VerificationError, which carries the result and its failed records.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import pfd
from .constants import (SymbolicValue, to_dirichlet_basis, to_json_dict,
                        to_latex, to_text)
from .numeric import DEFAULT_PRECISION, NumericCheckRecord, Precision, verify
from .parity import EvalRequest, closed_form


class VerificationError(RuntimeError):
    """A symbolic result failed its mandatory numeric check; `result` is
    the G2ClosedForm with its check records."""

    def __init__(self, result: "G2ClosedForm"):
        super().__init__("numeric check failed: " + "; ".join(
            f"{c.label}: residual {c.rel_residual}"
            for c in result.checks.values() if not c.passed))
        self.result = result


class G2Request(namedtuple("G2Request", "ks")):
    __slots__ = ()

    def __new__(cls, ks: tuple[int, int, int, int, int, int]):
        ks = tuple(ks)
        if len(ks) != 6 or any(type(k) is not int for k in ks) or min(ks) < 1:
            raise ValueError("need six integer exponents >= 1")
        if sum(ks) % 2 == 0:
            raise ValueError(
                "weight must be odd: the parity theorem covers odd weight only")
        return super().__new__(cls, ks)

    @property
    def weight(self) -> int:
        return sum(self.ks)

    @property
    def factors(self) -> list[tuple[int, int, int]]:
        """(cm, cn, exponent) of the six G2 forms for the lattice oracle."""
        return [(f.cm, f.cn, k) for f, k in zip(pfd.G2_FORMS, self.ks)]


class G2ClosedForm(namedtuple("G2ClosedForm", "request clausen dirichlet "
                              "reduction checks precision trace")):
    __slots__ = ()

    def __new__(cls, request: G2Request, clausen: SymbolicValue,
                dirichlet: SymbolicValue, reduction: pfd.TermSum,
                checks: dict[str, NumericCheckRecord], precision: Precision,
                trace: list | None = None):
        return super().__new__(cls, request, clausen, dirichlet, reduction,
                               checks, precision, [] if trace is None else trace)

    def reduction_list(self) -> list[tuple[Fraction, int, int, int, int, int]]:
        """[(coeff, a, b, e1, e2, e3)] with the term coeff * zeta_{a,b}(e)."""
        return [(t.coeff, *pfd.tornheim_parameters(t)) for t in self.reduction]

    def to_json_dict(self) -> dict:
        return {
            "request": list(self.request.ks),
            "weight": self.request.weight,
            "clausen": to_json_dict(self.clausen),
            "dirichlet": to_json_dict(self.dirichlet),
            "clausen_text": to_text(self.clausen),
            "dirichlet_text": to_text(self.dirichlet),
            "latex": to_latex(self.dirichlet),
            "reduction": [
                {"coeff": [str(c.numerator), str(c.denominator)],
                 "a": a, "b": b, "k": [e1, e2, e3]}
                for c, a, b, e1, e2, e3 in self.reduction_list()],
            "checks": {k: v.as_json_dict() for k, v in self.checks.items()},
            "digits": self.precision.digits,
            "tolerance": self.precision.tolerance,
        }


def request_term_sum(req: G2Request) -> pfd.TermSum:
    """The defining six-form product as a TermSum input for the reducer."""
    return pfd.TermSum.make([pfd.TermProduct.make(
        1, list(zip(pfd.G2_FORMS, req.ks)))])


# EvalRequest -> its Clausen closed form, shared by every request that
# reduces to that term; SymbolicValue has no in-place operator, so callers
# cannot mutate a shared value
_closed_forms: dict[EvalRequest, SymbolicValue] = {}


def reduced_closed_form(reduced: pfd.TermSum) -> SymbolicValue:
    """Clausen-basis closed form of a reduced sum of zeta_{a,b} terms, each
    term's closed form read from `_closed_forms`."""
    clausen = SymbolicValue.zero()
    for t in reduced:
        req = EvalRequest(*pfd.tornheim_parameters(t))
        value = _closed_forms.get(req)
        if value is None:
            value = _closed_forms[req] = closed_form(req)
        clausen = clausen + value * t.coeff
    return clausen


def evaluate_g2(req: G2Request,
                precision: Precision = DEFAULT_PRECISION,
                collect_trace: bool = False) -> G2ClosedForm:
    trace: list | None = [] if collect_trace else None
    reduced = pfd.reduce_to_tornheim(request_term_sum(req), trace=trace)
    clausen = reduced_closed_form(reduced)
    dirichlet = to_dirichlet_basis(clausen, req.weight)

    checks = verify({"clausen": clausen, "dirichlet": dirichlet}, req.factors,
                    precision)
    result = G2ClosedForm(request=req, clausen=clausen, dirichlet=dirichlet,
                          reduction=reduced, checks=checks, precision=precision,
                          trace=trace)
    if not all(c.passed for c in checks.values()):
        raise VerificationError(result)
    return result
