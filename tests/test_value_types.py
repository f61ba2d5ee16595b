"""The value types' contract: keyword construction with their field names,
exact reprs, immutable fields, LinearForm's order and the check record's
JSON dict.  Callers and stored outputs rely on each of these."""
from fractions import Fraction

import pytest

from tornheim.constants import BaseConstant, SymbolicValue
from tornheim.g2 import G2ClosedForm, G2Request
from tornheim.numeric import NumericCheckRecord, Precision
from tornheim.parity import EvalRequest
from tornheim.pfd import (FORM_M, FORM_N, G2_FORMS, LinearForm, RewriteStep,
                          TermProduct, TermSum)

U, W = LinearForm(1, 1), LinearForm(1, 2)
PRODUCT = TermProduct(Fraction(1, 2), ((U, 1), (W, 3)))
PRODUCT_TEXT = ("TermProduct(coeff=Fraction(1, 2), exponents=((LinearForm(cm=1, "
                "cn=1), 1), (LinearForm(cm=1, cn=2), 3)))")
RECORD = dict(label="closed form", lhs="1.5", rhs="1.5", abs_residual="0.0",
              rel_residual="0.0", tolerance=1e-10, digits=30, passed=True,
              cutoff=40, tail_bound="2.0e-45")

CASES = {
    "BaseConstant": (
        BaseConstant, dict(kind="C", index=5, angle=Fraction(1, 4)),
        "BaseConstant(kind='C', index=5, angle=Fraction(1, 4))"),
    "Precision": (
        Precision, dict(digits=45, tolerance=1e-35),
        "Precision(digits=45, tolerance=1e-35)"),
    "NumericCheckRecord": (
        NumericCheckRecord, RECORD,
        "NumericCheckRecord(label='closed form', lhs='1.5', rhs='1.5', "
        "abs_residual='0.0', rel_residual='0.0', tolerance=1e-10, digits=30, "
        "passed=True, cutoff=40, tail_bound='2.0e-45')"),
    "EvalRequest": (
        EvalRequest, dict(a=1, b=2, k1=1, k2=1, k3=3),
        "EvalRequest(a=1, b=2, k1=1, k2=1, k3=3)"),
    "G2Request": (
        G2Request, dict(ks=(1, 1, 1, 1, 1, 2)),
        "G2Request(ks=(1, 1, 1, 1, 1, 2))"),
    "G2ClosedForm": (
        G2ClosedForm,
        dict(request=G2Request((1, 1, 1, 1, 1, 2)),
             clausen=SymbolicValue.zero(), dirichlet=SymbolicValue.zero(),
             reduction=TermSum(()), checks={}, precision=Precision(), trace=[]),
        "G2ClosedForm(request=G2Request(ks=(1, 1, 1, 1, 1, 2)), "
        "clausen=SymbolicValue('0'), dirichlet=SymbolicValue('0'), "
        "reduction=TermSum(terms=()), checks={}, "
        "precision=Precision(digits=30, tolerance=1e-10), trace=[])"),
    "LinearForm": (
        LinearForm, dict(cm=2, cn=3), "LinearForm(cm=2, cn=3)"),
    "TermProduct": (
        TermProduct, dict(coeff=Fraction(1, 2), exponents=((U, 1), (W, 3))),
        PRODUCT_TEXT),
    "TermSum": (
        TermSum, dict(terms=(PRODUCT,)), f"TermSum(terms=({PRODUCT_TEXT},))"),
    "RewriteStep": (
        RewriteStep,
        dict(term=PRODUCT, u=U, w=W, produced=TermSum(())),
        f"RewriteStep(term={PRODUCT_TEXT}, u=LinearForm(cm=1, cn=1), "
        "w=LinearForm(cm=1, cn=2), produced=TermSum(terms=()))"),
}


@pytest.mark.parametrize("cls,fields,text", CASES.values(), ids=list(CASES))
def test_value_type_contract(cls, fields, text):
    value = cls(**fields)
    assert repr(value) == text
    for name, given in fields.items():
        assert getattr(value, name) == given
        with pytest.raises(AttributeError):
            setattr(value, name, given)


def test_form_order_defaults_and_record_dict():
    assert sorted(G2_FORMS) == [FORM_N, FORM_M, U, W, LinearForm(1, 3),
                                LinearForm(2, 3)]
    assert Precision() == Precision(30, 1e-10)
    assert BaseConstant("pi").index == 0 and BaseConstant("pi").angle == 0
    short = dict(RECORD)
    del short["cutoff"], short["tail_bound"]
    record = NumericCheckRecord(**short)
    assert record.cutoff is None and record.tail_bound is None
    as_dict = NumericCheckRecord(**RECORD).as_json_dict()
    assert type(as_dict) is dict and list(as_dict.items()) == list(RECORD.items())
    six = [v for k, v in CASES["G2ClosedForm"][1].items() if k != "trace"]
    assert G2ClosedForm(*six).trace == []
    assert G2ClosedForm(*six).trace is not G2ClosedForm(*six).trace


INVALID = {
    "Precision._replace": lambda: Precision()._replace(digits=30.5),
    "EvalRequest._replace": lambda: EvalRequest(1, 1, 1, 1, 3)._replace(k3=4),
    "G2Request._make": lambda: G2Request._make([(1, 1, 1, 1, 1, 1)]),
    "BaseConstant._make": lambda: BaseConstant._make(("C", 5, Fraction(1, 3))),
    "LinearForm._make": lambda: LinearForm._make((2, 4)),
    "Precision._make": lambda: Precision._make((12, 1e-5)),
}


@pytest.mark.parametrize("build", INVALID.values(), ids=list(INVALID))
def test_make_and_replace_validate(build):
    # namedtuple's _make, which _replace calls, would skip the constructor
    with pytest.raises(ValueError):
        build()


def test_valid_replace_keeps_the_type():
    request = EvalRequest(1, 1, 1, 1, 3)._replace(k3=5)
    assert type(request) is EvalRequest and request == (1, 1, 1, 1, 5)
    assert request.weight == 7
    assert type(Precision._make((45, 1e-35))) is Precision
